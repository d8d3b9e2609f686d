package check

import (
	"errors"
	"fmt"
	"log/slog"
	"strings"

	"repro/internal/cache"
	"repro/internal/writebuf"
)

// Options configures a lockstep self-check.
type Options struct {
	// Every is the structural-invariant interval in checked accesses:
	// every Every-th access runs the full invariant battery (both models'
	// internal invariants, cross-model residency, registered closures).
	// Zero selects the default (4096); negative disables interval checks,
	// leaving per-access verdict diffing and the Finish pass.
	Every int
	// Context, when set, is copied into every Divergence so reports name
	// the cell (trace, organization) without the caller parsing keys.
	Context string
}

// DefaultEvery is the invariant interval used when Options.Every is zero.
const DefaultEvery = 4096

func (o Options) every() int64 {
	switch {
	case o.Every == 0:
		return DefaultEvery
	case o.Every < 0:
		return 0
	}
	return int64(o.Every)
}

// Tally is the simulator's own end-of-run accounting, diffed against the
// oracle counters by Finish. Callers build it from their counter set
// (system.Counters.SelfCheckTally).
type Tally struct {
	Reads          int64
	ReadMisses     int64
	Writes         int64
	WriteHits      int64
	WriteMisses    int64
	Writebacks     int64
	WritebackWords int64
}

// Divergence is a typed disagreement between the real simulator and the
// reference model (or a violated structural invariant). It is permanent:
// the runner will not retry a cell that produced one, because the models
// are deterministic and the disagreement will simply recur.
type Divergence struct {
	// Context names the cell (trace, organization), from Options.Context
	// or SetContext.
	Context string
	// Label names the checked component: a shadow label ("I", "D", "U")
	// or a buffer/invariant name.
	Label string
	// Index is the 1-based checked-access count at detection time (0 for
	// divergences found by Finish).
	Index int64
	// Kind classifies the disagreement: "verdict" (per-access hit/miss or
	// victim diff), "invariant" (a structural property failed),
	// "residency" (the models cache different blocks), "counters"
	// (end-of-run tallies differ), or "writebuf" (FIFO order, depth or
	// occupancy violated).
	Kind string
	// Op and Addr identify the access for verdict divergences.
	Op   string
	Addr uint64
	// Detail is the field-by-field disagreement.
	Detail string
	// Real and Oracle render both models' relevant state (the cache set,
	// or the buffer queues) at detection time.
	Real   string
	Oracle string
}

// Error implements error.
func (d *Divergence) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "selfcheck: %s divergence in %s", d.Kind, d.Label)
	if d.Index > 0 {
		fmt.Fprintf(&b, " at access %d", d.Index)
	}
	if d.Op != "" {
		fmt.Fprintf(&b, " (%s %#x)", d.Op, d.Addr)
	}
	fmt.Fprintf(&b, ": %s", d.Detail)
	if d.Context != "" {
		fmt.Fprintf(&b, " [%s]", d.Context)
	}
	if d.Real != "" || d.Oracle != "" {
		fmt.Fprintf(&b, "\n  real:   %s\n  oracle: %s", d.Real, d.Oracle)
	}
	return b.String()
}

// Permanent marks the error non-retryable: both models are deterministic,
// so a retry reproduces the divergence.
func (d *Divergence) Permanent() bool { return true }

// LogAttrs exposes the report as structured logging attributes; the obs
// layer attaches them to the cell-failure record.
func (d *Divergence) LogAttrs() []slog.Attr {
	attrs := []slog.Attr{
		slog.String("check_kind", d.Kind),
		slog.String("check_label", d.Label),
		slog.Int64("check_index", d.Index),
	}
	if d.Op != "" {
		attrs = append(attrs,
			slog.String("check_op", d.Op),
			slog.String("check_addr", fmt.Sprintf("%#x", d.Addr)))
	}
	if d.Context != "" {
		attrs = append(attrs, slog.String("check_context", d.Context))
	}
	attrs = append(attrs, slog.String("check_detail", d.Detail))
	return attrs
}

// IsDivergence reports whether err is (or wraps) a Divergence.
func IsDivergence(err error) bool {
	var d *Divergence
	return errors.As(err, &d)
}

type namedInvariant struct {
	label string
	fn    func() error
}

// Checker coordinates a run's shadows, buffer oracles and invariants, and
// latches the first divergence. Not safe for concurrent use.
type Checker struct {
	opts     Options
	every    int64
	n        int64 // checked accesses
	diverged *Divergence

	shadows    []*Shadow
	bufs       []*BufOracle
	invariants []namedInvariant
}

// New constructs a checker.
func New(opts *Options) *Checker {
	c := &Checker{}
	if opts != nil {
		c.opts = *opts
	}
	c.every = c.opts.every()
	return c
}

// SetContext names the cell for divergence reports (trace and
// organization), overriding Options.Context.
func (c *Checker) SetContext(ctx string) { c.opts.Context = ctx }

// Err returns the latched divergence, or nil. A nil *Checker (an
// unchecked run) never diverges.
func (c *Checker) Err() error {
	if c == nil || c.diverged == nil {
		return nil
	}
	return c.diverged
}

// Diverged reports whether a divergence is latched. Callers poll it between
// couplets and abort the run with Err on the first divergence; unlike Err,
// it builds no error value, so the poll costs an unchecked run one test.
func (c *Checker) Diverged() bool { return c != nil && c.diverged != nil }

// fail latches the first divergence; later ones are dropped (the models
// are already desynchronized, so follow-on reports carry no signal).
func (c *Checker) fail(d *Divergence) {
	if c.diverged != nil {
		return
	}
	d.Context = c.opts.Context
	if d.Index == 0 {
		d.Index = c.n
	}
	c.diverged = d
}

// AddInvariant registers a closure run at every invariant interval and at
// Finish; a non-nil error becomes an "invariant" divergence.
func (c *Checker) AddInvariant(label string, fn func() error) {
	c.invariants = append(c.invariants, namedInvariant{label: label, fn: fn})
}

// AddConservation registers an instrument's conservation law (simtrace's
// cycle attribution, explain's 3C classification) with the invariant
// battery. A nil checker registers nothing; a nil instrument's law holds
// trivially.
func (c *Checker) AddConservation(label string, v interface{ CheckConservation() error }) {
	if c != nil {
		c.AddInvariant(label, v.CheckConservation)
	}
}

// AuditBuffer audits a write buffer configured with the given depth
// against a naive FIFO model: every enqueue and start is checked for FIFO
// order and depth bounds, and the invariant battery checks the buffer's
// structure and that both queues hold the same number of entries. A nil
// checker audits nothing.
func (c *Checker) AuditBuffer(label string, buf *writebuf.Buffer, depth int) {
	if c == nil {
		return
	}
	bo := c.BufOracle(label, depth)
	buf.SetAuditor(bo)
	c.AddInvariant(label, buf.CheckInvariants)
	c.AddInvariant(label+"-occupancy", func() error {
		if real, oracle := buf.Len(), bo.Len(); real != oracle {
			return fmt.Errorf("real queue holds %d entries, oracle %d", real, oracle)
		}
		return nil
	})
}

// tick counts one checked access and runs the interval battery when due.
func (c *Checker) tick() {
	c.n++
	if c.every > 0 && c.n%c.every == 0 {
		c.runChecks()
	}
}

// CheckNow runs the full invariant battery immediately and returns the
// first divergence (latched, so the run aborts at the next poll too).
func (c *Checker) CheckNow() error {
	if c.diverged == nil {
		c.runChecks()
	}
	return c.Err()
}

// runChecks executes the structural battery: each shadow's real-cache and
// oracle invariants, cross-model residency, then registered closures.
func (c *Checker) runChecks() {
	for _, s := range c.shadows {
		if c.diverged != nil {
			return
		}
		s.checkStructure()
	}
	for _, inv := range c.invariants {
		if c.diverged != nil {
			return
		}
		if err := inv.fn(); err != nil {
			c.fail(&Divergence{Label: inv.label, Kind: "invariant", Detail: err.Error()})
		}
	}
}

// Finish runs the final battery and, when t is non-nil, diffs the
// simulator's own tally against the oracle counters: per-shadow
// real-versus-oracle counts, summed oracle counts versus the simulator's
// accounting, and counter conservation (writes = write hits + write
// misses). It returns the first divergence of the whole run, or nil; a nil
// checker returns nil.
func (c *Checker) Finish(t *Tally) error {
	if c == nil {
		return nil
	}
	if c.diverged != nil {
		return c.diverged
	}
	c.runChecks()
	for _, s := range c.shadows {
		if c.diverged != nil {
			return c.diverged
		}
		s.checkCounters()
	}
	if c.diverged == nil && t != nil {
		c.checkTally(*t)
	}
	return c.Err()
}

// checkTally diffs the simulator's accounting against the summed oracle
// counters.
func (c *Checker) checkTally(t Tally) {
	var o Tally
	for _, s := range c.shadows {
		o.Reads += s.oracle.Reads
		o.ReadMisses += s.oracle.Reads - s.oracle.ReadHits
		o.Writes += s.oracle.Writes
		o.WriteHits += s.oracle.WriteHits
		o.WriteMisses += s.oracle.Writes - s.oracle.WriteHits
		o.Writebacks += s.oracle.Writebacks
		o.WritebackWords += s.oracle.WritebackWords
	}
	var diffs []string
	diffCount := func(name string, real, oracle int64) {
		if real != oracle {
			diffs = append(diffs, fmt.Sprintf("%s real=%d oracle=%d", name, real, oracle))
		}
	}
	diffCount("reads", t.Reads, o.Reads)
	diffCount("read-misses", t.ReadMisses, o.ReadMisses)
	diffCount("writes", t.Writes, o.Writes)
	diffCount("write-hits", t.WriteHits, o.WriteHits)
	diffCount("write-misses", t.WriteMisses, o.WriteMisses)
	diffCount("writebacks", t.Writebacks, o.Writebacks)
	diffCount("writeback-words", t.WritebackWords, o.WritebackWords)
	if t.Writes != t.WriteHits+t.WriteMisses {
		diffs = append(diffs, fmt.Sprintf("conservation: writes %d != write hits %d + write misses %d",
			t.Writes, t.WriteHits, t.WriteMisses))
	}
	if len(diffs) > 0 {
		c.fail(&Divergence{
			Label:  "counters",
			Kind:   "counters",
			Detail: strings.Join(diffs, "; "),
		})
	}
}

// Shadow wraps a real cache and its oracle; it satisfies cache.Interface
// so it drops into the couplet loop unchanged.
type Shadow struct {
	chk    *Checker
	label  string
	real   *cache.Cache
	oracle *Oracle

	// Real-side tallies, diffed against the oracle counters at Finish.
	reads, readHits   int64
	writes, writeHits int64
}

// Shadow builds a lockstep shadow of real. The oracle consumes the same
// seeded replacement stream, so the pair stays in lockstep on every
// policy.
func (c *Checker) Shadow(label string, real *cache.Cache) (*Shadow, error) {
	oracle, err := NewOracle(real.Config())
	if err != nil {
		return nil, fmt.Errorf("check: shadow %s: %w", label, err)
	}
	s := &Shadow{chk: c, label: label, real: real, oracle: oracle}
	c.shadows = append(c.shadows, s)
	return s, nil
}

// Config returns the shadowed cache's configuration.
func (s *Shadow) Config() cache.Config { return s.real.Config() }

// Real returns the shadowed cache.
func (s *Shadow) Real() *cache.Cache { return s.real }

// Read forwards a read to the real cache and diffs its result against the
// oracle's verdict.
func (s *Shadow) Read(addr uint64) cache.Result {
	res := s.real.Read(addr)
	if s.chk.diverged == nil {
		s.reads++
		if res.Hit {
			s.readHits++
		}
		s.observe("read", addr, res, s.oracle.Read(addr))
	}
	return res
}

// Write forwards a write to the real cache and diffs its result against
// the oracle's verdict.
func (s *Shadow) Write(addr uint64) cache.Result {
	res := s.real.Write(addr)
	if s.chk.diverged == nil {
		s.writes++
		if res.Hit {
			s.writeHits++
		}
		s.observe("write", addr, res, s.oracle.Write(addr))
	}
	return res
}

// observe diffs one access's outcomes and ticks the invariant interval.
func (s *Shadow) observe(op string, addr uint64, res cache.Result, v Verdict) {
	if detail := diffVerdict(res, v); detail != "" {
		_, set := s.oracle.blockOf(addr)
		s.chk.fail(&Divergence{
			Label:  s.label,
			Kind:   "verdict",
			Op:     op,
			Addr:   addr,
			Detail: detail,
			Real:   renderRealSet(s.real, set),
			Oracle: s.oracle.renderSet(set),
		})
		return
	}
	s.chk.tick()
}

// diffVerdict compares a real access result with the oracle verdict,
// returning "" when they agree.
func diffVerdict(res cache.Result, v Verdict) string {
	var diffs []string
	diffBool := func(name string, real, oracle bool) {
		if real != oracle {
			diffs = append(diffs, fmt.Sprintf("%s real=%v oracle=%v", name, real, oracle))
		}
	}
	diffBool("hit", res.Hit, v.Hit)
	diffBool("allocated", res.Allocated, v.Allocated)
	diffBool("victim-valid", res.Displaced, v.VictimValid)
	if res.Displaced && v.VictimValid {
		if res.Victim.BlockAddr != v.VictimBlockAddr {
			diffs = append(diffs, fmt.Sprintf("victim-block real=%#x oracle=%#x",
				res.Victim.BlockAddr, v.VictimBlockAddr))
		}
		diffBool("victim-dirty", res.Victim.Dirty(), v.VictimDirty)
		if res.Victim.DirtyWords != v.VictimDirtyWords {
			diffs = append(diffs, fmt.Sprintf("victim-dirty-words real=%d oracle=%d",
				res.Victim.DirtyWords, v.VictimDirtyWords))
		}
		if res.Victim.Words != v.VictimWbWords {
			diffs = append(diffs, fmt.Sprintf("victim-writeback-words real=%d oracle=%d",
				res.Victim.Words, v.VictimWbWords))
		}
	}
	return strings.Join(diffs, "; ")
}

// checkStructure runs both models' internal invariants and the
// cross-model residency comparison for this shadow.
func (s *Shadow) checkStructure() {
	if err := s.real.CheckInvariants(); err != nil {
		s.chk.fail(&Divergence{Label: s.label, Kind: "invariant",
			Detail: fmt.Sprintf("real cache: %v", err)})
		return
	}
	if err := s.oracle.CheckInvariants(); err != nil {
		s.chk.fail(&Divergence{Label: s.label, Kind: "invariant",
			Detail: fmt.Sprintf("oracle: %v", err)})
		return
	}
	sets := s.real.Config().Sets()
	for set := 0; set < sets; set++ {
		real := residentBlocks(s.real, set)
		want := s.oracle.ResidentBlocks(set)
		if !equalBlocks(real, want) {
			s.chk.fail(&Divergence{
				Label:  s.label,
				Kind:   "residency",
				Detail: fmt.Sprintf("set %d holds different blocks", set),
				Real:   renderRealSet(s.real, set),
				Oracle: s.oracle.renderSet(set),
			})
			return
		}
	}
}

// checkCounters diffs the shadow's real-side tallies against the oracle
// counters (run by Finish).
func (s *Shadow) checkCounters() {
	var diffs []string
	diffCount := func(name string, real, oracle int64) {
		if real != oracle {
			diffs = append(diffs, fmt.Sprintf("%s real=%d oracle=%d", name, real, oracle))
		}
	}
	diffCount("reads", s.reads, s.oracle.Reads)
	diffCount("read-hits", s.readHits, s.oracle.ReadHits)
	diffCount("writes", s.writes, s.oracle.Writes)
	diffCount("write-hits", s.writeHits, s.oracle.WriteHits)
	if len(diffs) > 0 {
		s.chk.fail(&Divergence{Label: s.label, Kind: "counters",
			Detail: strings.Join(diffs, "; ")})
	}
}

// residentBlocks returns the real cache's valid blocks in a set, sorted.
func residentBlocks(c *cache.Cache, set int) []uint64 {
	var out []uint64
	for _, l := range c.SetState(set) {
		if l.Valid {
			out = append(out, l.Tag)
		}
	}
	sortBlocks(out)
	return out
}

func sortBlocks(b []uint64) {
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && b[j] < b[j-1]; j-- {
			b[j], b[j-1] = b[j-1], b[j]
		}
	}
}

func equalBlocks(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// renderRealSet formats the real cache's set state for divergence reports.
func renderRealSet(c *cache.Cache, set int) string {
	var b strings.Builder
	for i, l := range c.SetState(set) {
		if i > 0 {
			b.WriteString(" ")
		}
		if !l.Valid {
			fmt.Fprintf(&b, "[%d:-]", l.Way)
			continue
		}
		flag := ""
		if l.Dirty {
			flag = "*"
		}
		fmt.Fprintf(&b, "[%d:%#x%s]", l.Way, l.Tag, flag)
	}
	return b.String()
}
