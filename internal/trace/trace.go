// Package trace defines the memory-reference trace representation used by
// every simulator in this repository, together with readers and writers for
// a compact binary container format and a Dinero-style "din" text format.
//
// A trace is a flat sequence of word-granularity references. Following the
// paper (Przybylski, Horowitz & Hennessy, ISCA 1988), all references are to
// 32-bit words: the VAX traces the paper used were preprocessed so that
// sequences of instruction fetches from the same word collapse to a single
// word reference and multi-word accesses split into sequential word
// accesses. Each reference carries the process identifier of the issuing
// process; virtual caches concatenate it with the high-order address bits to
// form the tag.
package trace

import "fmt"

// Kind classifies a memory reference. A "read" in the paper's terminology is
// either a Load or an Ifetch.
type Kind uint8

const (
	// Ifetch is an instruction fetch, serviced by the instruction cache.
	Ifetch Kind = iota
	// Load is a data read, serviced by the data cache.
	Load
	// Store is a data write, serviced by the data cache.
	Store

	numKinds = 3
)

// String returns the conventional one-letter din label for the kind.
func (k Kind) String() string {
	switch k {
	case Ifetch:
		return "i"
	case Load:
		return "r"
	case Store:
		return "w"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsRead reports whether the reference reads memory (load or ifetch).
func (k Kind) IsRead() bool { return k == Ifetch || k == Load }

// IsData reports whether the reference is serviced by the data cache.
func (k Kind) IsData() bool { return k == Load || k == Store }

// Ref is a single word-granularity memory reference.
type Ref struct {
	// Addr is the virtual word address within the issuing process.
	Addr uint32
	// PID identifies the issuing process. Virtual caches include it in
	// the tag, so equal addresses from different processes conflict only
	// in the index, exactly as in the paper's virtual-cache model.
	PID uint8
	// Kind is the reference type.
	Kind Kind
}

// Extended returns the PID-extended virtual word address. Virtual caches
// index with the low-order address bits and tag with the remaining bits,
// including the PID, so two processes touching the same virtual address map
// to the same set but carry distinct tags.
func (r Ref) Extended() uint64 { return uint64(r.PID)<<32 | uint64(r.Addr) }

// Trace is an in-memory reference trace plus the metadata the simulators
// need: a name for reporting and the warm-start boundary after which
// statistics are gathered (cache and memory state carries across the
// boundary; only the counters reset).
type Trace struct {
	Name string
	Refs []Ref
	// WarmStart is the index of the first measured reference. References
	// before it warm the caches but are excluded from all statistics.
	WarmStart int
}

// Len returns the number of references in the trace.
func (t *Trace) Len() int { return len(t.Refs) }

// Validate checks internal consistency: a sane warm-start boundary and at
// least one measured reference.
func (t *Trace) Validate() error {
	if err := t.ValidateWarmStart(); err != nil {
		return err
	}
	for i, r := range t.Refs {
		if r.Kind >= numKinds {
			return t.KindError(i)
		}
	}
	return nil
}

// ValidateWarmStart is the constant-time half of Validate: the warm-start
// boundary lies inside the trace, so at least one reference is measured.
// A pass that visits every reference anyway checks the kinds as it goes
// and reports the first bad one with KindError, instead of scanning the
// trace twice.
func (t *Trace) ValidateWarmStart() error {
	if t.WarmStart < 0 || t.WarmStart >= len(t.Refs) {
		return fmt.Errorf("trace %q: warm start %d outside [0, %d)", t.Name, t.WarmStart, len(t.Refs))
	}
	return nil
}

// KindError is Validate's error for reference i, whose kind is invalid.
func (t *Trace) KindError(i int) error {
	return fmt.Errorf("trace %q: ref %d has invalid kind %d", t.Name, i, t.Refs[i].Kind)
}

// CoupletLen returns the number of references in the couplet starting at
// index i: 2 when an instruction fetch is immediately followed by a data
// reference (the CPU model issues them simultaneously and both must complete
// before it proceeds), otherwise 1. Both simulators share this pairing rule,
// and the paper's requirement that references are paired "without reordering
// any of the references" is preserved: a data reference not preceded by an
// ifetch issues alone.
func CoupletLen(refs []Ref, i int) int {
	if refs[i].Kind == Ifetch && i+1 < len(refs) && refs[i+1].Kind.IsData() {
		return 2
	}
	return 1
}

// Summary holds the aggregate composition of a trace, the data behind the
// paper's Table 1.
type Summary struct {
	Name       string
	Refs       int
	Measured   int // references at or after the warm-start boundary
	Ifetches   int
	Loads      int
	Stores     int
	Processes  int
	UniqueAddr int // distinct (PID, word address) pairs across the whole trace
}

// Summarize scans the trace once and returns its composition.
func Summarize(t *Trace) Summary {
	s := Summary{Name: t.Name, Refs: len(t.Refs), Measured: len(t.Refs) - t.WarmStart}
	seen := make(map[uint64]struct{}, 1<<16)
	var procs [256]bool // by PID: a map here took half the scan's time
	for _, r := range t.Refs {
		switch r.Kind {
		case Ifetch:
			s.Ifetches++
		case Load:
			s.Loads++
		case Store:
			s.Stores++
		}
		seen[r.Extended()] = struct{}{}
		procs[r.PID] = true
	}
	s.UniqueAddr = len(seen)
	for _, in := range procs {
		if in {
			s.Processes++
		}
	}
	return s
}
