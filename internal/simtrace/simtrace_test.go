package simtrace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestCarving hand-checks one couplet: a load miss that waited 3 cycles on
// the memory unit, 1 of them inside a recovery tail.
func TestCarving(t *testing.T) {
	r := New(Options{Attrib: true})
	r.BeginCouplet(0)
	r.NoteFetch(3, 1, false)
	r.NoteRef(Load, 11)
	r.EndCouplet(11)
	a := r.Attribution()
	want := Attribution{
		BaseIssue:     1,
		MemWait:       2,
		MemRecovery:   1,
		LoadMissStall: 7,
		Cycles:        11,
	}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("attribution %+v, want %+v", a, want)
	}
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCarveClamps verifies a noted wait larger than the couplet's stall
// cycles is clamped, never over-attributing.
func TestCarveClamps(t *testing.T) {
	r := New(Options{Attrib: true})
	r.BeginCouplet(0)
	r.NoteFetch(100, 0, false)
	r.NoteRef(Ifetch, 4)
	r.EndCouplet(4)
	a := r.Attribution()
	if a.MemWait != 3 || a.IfetchMissStall != 0 {
		t.Fatalf("clamp failed: %+v", a)
	}
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestMatchedFetch verifies a buffer-matched fetch books its wait to the
// match bucket, not the memory buckets.
func TestMatchedFetch(t *testing.T) {
	r := New(Options{Attrib: true})
	hits(r, 0, 10) // cover cycles 0..10 so conservation can hold
	r.BeginCouplet(10)
	r.NoteFetch(5, 2, true)
	r.NoteRef(Load, 21)
	r.EndCouplet(21)
	a := r.Attribution()
	if a.BufMatchWait != 5 || a.MemWait != 0 || a.MemRecovery != 0 {
		t.Fatalf("matched fetch misattributed: %+v", a)
	}
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCriticalRefLatestWins verifies the residual lands in the bucket of
// the latest-completing reference, ties going to the later call.
func TestCriticalRefLatestWins(t *testing.T) {
	r := New(Options{Attrib: true})
	r.BeginCouplet(0)
	r.NoteRef(Ifetch, 5)
	r.NoteRef(Load, 3)
	r.EndCouplet(5)
	if a := r.Attribution(); a.IfetchMissStall != 4 || a.LoadMissStall != 0 {
		t.Fatalf("ifetch should be critical: %+v", a)
	}

	r = New(Options{Attrib: true})
	r.BeginCouplet(0)
	r.NoteRef(Ifetch, 5)
	r.NoteRef(Store, 5) // tie: the later call wins
	r.EndCouplet(5)
	if a := r.Attribution(); a.StoreCycles != 4 || a.IfetchMissStall != 0 {
		t.Fatalf("store should win the tie: %+v", a)
	}
}

// hits records n one-cycle ifetch hits from cycle now.
func hits(r *Recorder, now, n int64) {
	for c := now; c < now+n; c++ {
		r.BeginCouplet(c)
		r.NoteRef(Ifetch, c+1)
		r.EndCouplet(c + 1)
	}
}

// TestWarmWindow verifies the warm-window subtraction: the attribution
// after MarkWarm is the whole run minus the snapshot.
func TestWarmWindow(t *testing.T) {
	r := New(Options{Attrib: true})
	hits(r, 0, 7)
	for c := int64(7); c < 13; c += 2 { // three two-cycle store hits
		r.BeginCouplet(c)
		r.NoteRef(Store, c+2)
		r.EndCouplet(c + 2)
	}
	r.MarkWarm()
	r.BeginCouplet(13)
	r.NoteRef(Store, 15)
	r.EndCouplet(15)

	a := r.Attribution()
	if a.BaseIssue != 11 || a.StoreCycles != 4 || a.Cycles != 15 {
		t.Fatalf("total attribution %+v", a)
	}
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	w := r.AttributionWarm()
	if w.BaseIssue != 1 || w.StoreCycles != 1 || w.Cycles != 2 {
		t.Fatalf("warm attribution %+v", w)
	}
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestLevelService verifies per-level carving: growth on demand and the
// negative clamp.
func TestLevelService(t *testing.T) {
	r := New(Options{Attrib: true})
	r.BeginCouplet(0)
	r.NoteLevelService(1, 4) // L3 first: slice grows
	r.NoteLevelService(0, -2)
	r.NoteRef(Load, 10)
	r.EndCouplet(10)
	a := r.Attribution()
	if len(a.LevelService) != 2 || a.LevelService[0] != 0 || a.LevelService[1] != 4 {
		t.Fatalf("level service %v", a.LevelService)
	}
	if a.LoadMissStall != 5 {
		t.Fatalf("residual %d after level carve", a.LoadMissStall)
	}
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestFinishMismatch verifies Finish rejects an attribution that did not
// track the simulator's clock.
func TestFinishMismatch(t *testing.T) {
	r := New(Options{Attrib: true})
	r.BeginCouplet(0)
	r.NoteRef(Load, 5)
	r.EndCouplet(5)
	if err := r.Finish(Sample{}, 6); err == nil {
		t.Fatal("Finish accepted a cycle mismatch")
	}
	if err := r.Finish(Sample{}, 5); err != nil {
		t.Fatal(err)
	}
}

// TestSubAdd round-trips attributions with unequal level slices.
func TestSubAdd(t *testing.T) {
	a := Attribution{BaseIssue: 10, MemWait: 4, LevelService: []int64{3, 2}, Cycles: 19}
	b := Attribution{BaseIssue: 4, MemWait: 1, LevelService: []int64{1}, Cycles: 6}
	d := a.Sub(b)
	if d.BaseIssue != 6 || d.MemWait != 3 || d.Cycles != 13 {
		t.Fatalf("sub %+v", d)
	}
	if len(d.LevelService) != 2 || d.LevelService[0] != 2 || d.LevelService[1] != 2 {
		t.Fatalf("sub levels %v", d.LevelService)
	}
	s := d.Add(b)
	if s.BaseIssue != a.BaseIssue || s.Cycles != a.Cycles ||
		len(s.LevelService) != 2 || s.LevelService[0] != 3 || s.LevelService[1] != 2 {
		t.Fatalf("add round trip %+v", s)
	}
}

// TestComponentsCoverSum verifies Components enumerates every bucket: the
// component sum must equal Sum().
func TestComponentsCoverSum(t *testing.T) {
	a := Attribution{
		BaseIssue: 1, StoreCycles: 2, IfetchMissStall: 3, LoadMissStall: 4,
		BufFullStall: 5, BufMatchWait: 6, MemWait: 7, MemRecovery: 8,
		LevelService: []int64{9, 10},
	}
	var sum int64
	for _, c := range a.Components() {
		sum += c.Cycles
	}
	if sum != a.Sum() {
		t.Fatalf("components sum %d, Sum() %d", sum, a.Sum())
	}
}

// TestNilRecorderIsInert: every entry point must be callable through a nil
// recorder, the flags-off fast path.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.On() || r.IntervalsOn() {
		t.Fatal("nil recorder claims to be armed")
	}
	r.MarkWarm()
	r.NoteRef(Load, 1)
	if err := r.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if err := r.Finish(Sample{}, 0); err != nil {
		t.Fatal(err)
	}
}

// TestWindows verifies delta windows, boundary crossing by couplet strides
// and the trailing partial window.
func TestWindows(t *testing.T) {
	r := New(Options{IntervalRefs: 10})
	samples := []Sample{
		{Refs: 11, Cycles: 22, Loads: 5, LoadMisses: 1, MemBusyCycles: 4},
		{Refs: 21, Cycles: 62, Loads: 9, LoadMisses: 3, MemBusyCycles: 24},
	}
	for _, s := range samples {
		if !r.WindowDue(s.Refs) {
			t.Fatalf("window not due at %d refs", s.Refs)
		}
		r.SampleDepth(2)
		r.EmitWindow(s)
	}
	if r.WindowDue(25) {
		t.Fatal("window due immediately after boundary advance")
	}
	// Final partial window via Finish.
	if err := r.Finish(Sample{Refs: 25, Cycles: 70, Loads: 11, LoadMisses: 3}, 70); err != nil {
		t.Fatal(err)
	}
	ws := r.Windows()
	if len(ws) != 3 {
		t.Fatalf("got %d windows", len(ws))
	}
	w0, w1, w2 := ws[0], ws[1], ws[2]
	if w0.CPI != 2 || w0.StartRef != 0 || w0.EndRef != 11 || w0.MemUtil != 4.0/22 {
		t.Fatalf("window 0: %+v", w0)
	}
	if w1.CPI != 4 || w1.StartRef != 11 || w1.LoadMissRatio != 0.5 || w1.MemUtil != 0.5 {
		t.Fatalf("window 1: %+v", w1)
	}
	if w2.StartRef != 21 || w2.EndRef != 25 || w2.CPI != 2 {
		t.Fatalf("window 2 (partial): %+v", w2)
	}
	if w1.DepthMean != 2 || w1.DepthMax != 2 {
		t.Fatalf("window 1 depth stats: %+v", w1)
	}
	if w2.DepthMax != 0 {
		t.Fatal("depth histogram not reset between windows")
	}
}

// TestWarmupEstimate drives the estimator over a series that settles after
// two noisy windows, one that never settles, and one too short to judge.
func TestWarmupEstimate(t *testing.T) {
	emit := func(cpis []float64) *Recorder {
		r := New(Options{IntervalRefs: 10})
		var s Sample
		for _, cpi := range cpis {
			s.Refs += 10
			s.Cycles += int64(cpi * 10)
			r.EmitWindow(s)
		}
		return r
	}
	r := emit([]float64{5, 2, 1, 1, 1, 1})
	w, ref, ok := r.WarmupEstimate(0)
	if !ok || w != 2 || ref != 20 {
		t.Fatalf("estimate = (%d, %d, %v)", w, ref, ok)
	}
	if _, _, ok := emit([]float64{5, 1, 5, 1, 5, 1}).WarmupEstimate(0); ok {
		t.Fatal("oscillating series reported stable")
	}
	if _, _, ok := emit([]float64{1}).WarmupEstimate(0); ok {
		t.Fatal("single window reported stable")
	}
}

// TestWindowExports checks the NDJSON and CSV encodings agree with the
// window records.
func TestWindowExports(t *testing.T) {
	r := New(Options{IntervalRefs: 10})
	r.EmitWindow(Sample{Refs: 10, Cycles: 30, Loads: 4, LoadMisses: 1})
	r.EmitWindow(Sample{Refs: 20, Cycles: 90, Loads: 8, LoadMisses: 2})

	var nd bytes.Buffer
	if err := r.WriteWindowsNDJSON(&nd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(nd.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d NDJSON lines", len(lines))
	}
	var w Window
	if err := json.Unmarshal([]byte(lines[1]), &w); err != nil {
		t.Fatal(err)
	}
	if w.Index != 1 || w.CPI != 6 {
		t.Fatalf("decoded window %+v", w)
	}

	var csv bytes.Buffer
	if err := r.WriteWindowsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(rows) != 3 || !strings.HasPrefix(rows[0], "window,start_ref") {
		t.Fatalf("CSV:\n%s", csv.String())
	}
	if !strings.HasPrefix(rows[2], "1,10,20,30,90,6,") {
		t.Fatalf("CSV row: %s", rows[2])
	}
}
