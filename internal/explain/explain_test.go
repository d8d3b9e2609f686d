package explain

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/workload"
)

// op is one word access of a synthetic stimulus stream.
type op struct {
	addr  uint64
	write bool
}

// streamFrom flattens a trace into the word-access stream one cache side
// would observe if it served every reference (the shadow models don't
// care about I/D routing, only about the access sequence).
func streamFrom(t *trace.Trace) []op {
	ops := make([]op, 0, len(t.Refs))
	for _, r := range t.Refs {
		ops = append(ops, op{addr: r.Extended(), write: r.Kind == trace.Store})
	}
	return ops
}

func testStreams(tb testing.TB) map[string][]op {
	tb.Helper()
	streams := map[string][]op{
		"sequential": streamFrom(workload.Sequential(4000, 0)),
		"loop":       streamFrom(workload.Loop(4000, 300)),
		"random":     streamFrom(workload.Random(4000, 4096, 0.3, 7)),
		"couplets":   streamFrom(workload.Couplets(4000)),
		"conflict":   streamFrom(workload.Conflict(2000, 1<<14)),
	}
	mu3, err := workload.ByName("mu3")
	if err != nil {
		tb.Fatal(err)
	}
	streams["mu3"] = streamFrom(mu3.MustGenerate(0.02))
	return streams
}

// TestLRUShadowMatchesCache pins the O(1) fully-associative LRU shadow
// against a genuinely fully-associative cache.Cache (Assoc == blocks,
// LRU) bit-for-bit: same hits, same misses, on every access, across
// whole-block and sub-block geometries and both allocation policies. This
// equivalence is what makes the conflict class exact.
func TestLRUShadowMatchesCache(t *testing.T) {
	type geom struct {
		name                  string
		sizeWords, blockWords int
		fetchWords            int
		walloc                bool
	}
	geoms := []geom{
		{"64b-whole", 64, 4, 0, false},
		{"64b-whole-alloc", 64, 4, 0, true},
		{"256b-whole", 256, 8, 0, true},
		{"1kb-sub", 1024, 16, 4, false},
		{"1kb-sub-alloc", 1024, 16, 4, true},
		{"small-sub", 128, 32, 8, true},
	}
	for name, ops := range testStreams(t) {
		for _, g := range geoms {
			cfg := cache.Config{
				SizeWords:     g.sizeWords,
				BlockWords:    g.blockWords,
				Assoc:         g.sizeWords / g.blockWords,
				Replacement:   cache.LRU,
				WritePolicy:   cache.WriteBack,
				WriteAllocate: g.walloc,
				FetchWords:    g.fetchWords,
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", name, g.name, err)
			}
			ref := cache.MustNew(cfg)
			shadow := newLRUShadow(cfg)
			for i, o := range ops {
				var want cache.Result
				if o.write {
					want = ref.Write(o.addr)
				} else {
					want = ref.Read(o.addr)
				}
				got := shadow.Access(o.addr, o.write)
				if got != want.Hit {
					t.Fatalf("%s/%s: access %d (addr %#x write %v): shadow hit=%v, cache hit=%v",
						name, g.name, i, o.addr, o.write, got, want.Hit)
				}
			}
		}
	}
}

// TestInfiniteShadowNeverRemisses asserts the infinite shadow's defining
// property: once a word has been installed, every later access to it
// hits, and under write-allocate the only misses are first touches of
// each fetch unit.
func TestInfiniteShadowNeverRemisses(t *testing.T) {
	cfg := cache.Config{
		SizeWords: 256, BlockWords: 4, Assoc: 1,
		Replacement: cache.LRU, WritePolicy: cache.WriteBack, WriteAllocate: true,
	}
	s := newInfiniteShadow(cfg)
	geom := newShadowGeom(cfg)
	seen := make(map[uint64]bool) // fetch-unit granule (whole block here)
	for name, ops := range testStreams(t) {
		for i, o := range ops {
			block := o.addr >> geom.blockShift
			got := s.Access(o.addr, o.write)
			if got != seen[block] {
				t.Fatalf("%s: access %d: infinite shadow hit=%v, want %v", name, i, got, seen[block])
			}
			seen[block] = true
		}
	}
}

// TestReportMerge exercises the multi-trace rollup path: matching sides
// sum their counters and 3C classes, a side only the other report has is
// appended.
func TestReportMerge(t *testing.T) {
	mk := func(label string, misses int64) *Report {
		return &Report{Sides: []SideReport{{
			Label:  label,
			Refs:   misses * 10,
			Misses: misses,
			ThreeC: ThreeC{Compulsory: misses - 1, Conflict: 1},
		}}}
	}
	r := mk("D", 5)
	r.Merge(mk("D", 3))
	r.Merge(mk("I", 2))
	r.Merge(nil)
	s := r.Side("D")
	if s.Refs != 80 || s.Misses != 8 || s.ThreeC != (ThreeC{Compulsory: 6, Conflict: 2}) {
		t.Fatalf("merged side = %+v", *s)
	}
	if len(r.Sides) != 2 || r.Side("I").Misses != 2 {
		t.Fatalf("merged report = %+v", r.Sides)
	}
	if got := r.Total3C().Total(); got != r.TotalMisses() {
		t.Fatalf("merged 3C total %d != misses %d", got, r.TotalMisses())
	}
}
