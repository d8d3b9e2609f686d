package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Trace {
	return &Trace{
		Name: "sample",
		Refs: []Ref{
			{Addr: 0x10, PID: 1, Kind: Ifetch},
			{Addr: 0x8000, PID: 1, Kind: Load},
			{Addr: 0x11, PID: 1, Kind: Ifetch},
			{Addr: 0x8001, PID: 2, Kind: Store},
			{Addr: 0x12, PID: 1, Kind: Ifetch},
		},
		WarmStart: 2,
	}
}

func TestKindString(t *testing.T) {
	if Ifetch.String() != "i" || Load.String() != "r" || Store.String() != "w" {
		t.Fatal("kind strings wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Fatal("unknown kind string should carry the value")
	}
}

func TestKindPredicates(t *testing.T) {
	if !Ifetch.IsRead() || !Load.IsRead() || Store.IsRead() {
		t.Fatal("IsRead wrong")
	}
	if Ifetch.IsData() || !Load.IsData() || !Store.IsData() {
		t.Fatal("IsData wrong")
	}
}

func TestExtended(t *testing.T) {
	r := Ref{Addr: 0x1234, PID: 3}
	if r.Extended() != 3<<32|0x1234 {
		t.Fatalf("extended = %#x", r.Extended())
	}
}

func TestValidate(t *testing.T) {
	tr := sample()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tr.WarmStart = len(tr.Refs)
	if err := tr.Validate(); err == nil {
		t.Fatal("out-of-range warm start accepted")
	}
	tr = sample()
	tr.Refs[1].Kind = 7
	if err := tr.Validate(); err == nil {
		t.Fatal("invalid kind accepted")
	}
}

func TestCoupletLen(t *testing.T) {
	refs := sample().Refs
	if CoupletLen(refs, 0) != 2 { // ifetch + load
		t.Fatal("ifetch+load should pair")
	}
	if CoupletLen(refs, 2) != 2 { // ifetch + store
		t.Fatal("ifetch+store should pair")
	}
	if CoupletLen(refs, 4) != 1 { // trailing ifetch
		t.Fatal("trailing ifetch should be alone")
	}
	if CoupletLen([]Ref{{Kind: Load}, {Kind: Store}}, 0) != 1 {
		t.Fatal("bare data ref should be alone")
	}
	if CoupletLen([]Ref{{Kind: Ifetch}, {Kind: Ifetch}}, 0) != 1 {
		t.Fatal("back-to-back ifetches must not pair")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(sample())
	if s.Refs != 5 || s.Measured != 3 {
		t.Fatalf("refs/measured = %d/%d", s.Refs, s.Measured)
	}
	if s.Ifetches != 3 || s.Loads != 1 || s.Stores != 1 {
		t.Fatalf("mix = %d/%d/%d", s.Ifetches, s.Loads, s.Stores)
	}
	if s.Processes != 2 {
		t.Fatalf("processes = %d", s.Processes)
	}
	if s.UniqueAddr != 5 {
		t.Fatalf("unique = %d", s.UniqueAddr)
	}
}

// TestSummarizeExtremePIDs: the process count covers the whole PID
// range, both ends included.
func TestSummarizeExtremePIDs(t *testing.T) {
	tr := &Trace{Name: "pids", Refs: []Ref{
		{Addr: 1, PID: 0, Kind: Ifetch}, {Addr: 1, PID: 255, Kind: Load},
		{Addr: 2, PID: 255, Kind: Ifetch}, {Addr: 1, PID: 0, Kind: Store},
	}}
	s := Summarize(tr)
	if s.Processes != 2 || s.UniqueAddr != 3 {
		t.Fatalf("processes/unique = %d/%d, want 2/3", s.Processes, s.UniqueAddr)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	orig := sample()
	if err := WriteBinary(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.WarmStart != orig.WarmStart {
		t.Fatalf("metadata mismatch: %q/%d", got.Name, got.WarmStart)
	}
	if len(got.Refs) != len(orig.Refs) {
		t.Fatalf("len = %d", len(got.Refs))
	}
	for i := range got.Refs {
		if got.Refs[i] != orig.Refs[i] {
			t.Fatalf("ref %d = %+v, want %+v", i, got.Refs[i], orig.Refs[i])
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestBinaryTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(b[:len(b)-3])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestDinRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	orig := sample()
	if err := WriteDin(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDin(&buf, "sample")
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Refs {
		if got.Refs[i] != orig.Refs[i] {
			t.Fatalf("ref %d = %+v, want %+v", i, got.Refs[i], orig.Refs[i])
		}
	}
}

func TestDinWithoutPID(t *testing.T) {
	in := "0 1a2b\n2 10\n1 ff\n# comment\n\n"
	got, err := ReadDin(strings.NewReader(in), "x")
	if err != nil {
		t.Fatal(err)
	}
	want := []Ref{
		{Addr: 0x1a2b, Kind: Load},
		{Addr: 0x10, Kind: Ifetch},
		{Addr: 0xff, Kind: Store},
	}
	for i := range want {
		if got.Refs[i] != want[i] {
			t.Fatalf("ref %d = %+v", i, got.Refs[i])
		}
	}
}

func TestDinErrors(t *testing.T) {
	bad := []string{
		"",           // empty
		"9 10\n",     // unknown label
		"0 zz\n",     // bad address
		"0 10 900\n", // pid out of range
		"0\n",        // missing address
	}
	for _, in := range bad {
		if _, err := ReadDin(strings.NewReader(in), "bad"); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

// Property: binary round trip preserves arbitrary reference sequences.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(addrs []uint32, pids []uint8) bool {
		if len(addrs) == 0 {
			return true
		}
		tr := &Trace{Name: "prop"}
		for i, a := range addrs {
			pid := uint8(0)
			if len(pids) > 0 {
				pid = pids[i%len(pids)]
			}
			tr.Refs = append(tr.Refs, Ref{Addr: a, PID: pid, Kind: Kind(i % 3)})
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if len(got.Refs) != len(tr.Refs) {
			return false
		}
		for i := range got.Refs {
			if got.Refs[i] != tr.Refs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
