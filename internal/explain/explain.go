// Package explain is the explainability layer of the simulator core: an
// opt-in recorder threaded through the system simulator that answers
// *why* references miss, not just that they do.
//
// Three instruments, each armed independently through Options:
//
//   - ThreeC classifies every real-cache miss as compulsory, capacity or
//     conflict by running two shadow models in lockstep with the real
//     cache: an infinite cache (would a cache of unbounded capacity with
//     the same block, fetch and allocation policy have hit?) and a
//     fully-associative LRU cache of equal capacity (would full
//     associativity have hit?). A miss the infinite cache also takes is
//     compulsory; a miss the fully-associative cache would have absorbed
//     is conflict; the rest is capacity. The three cases are exhaustive
//     and disjoint, so compulsory+capacity+conflict == misses holds by
//     construction — the conservation invariant the check battery and
//     Finish both enforce.
//
//   - Reuse maintains an O(log n) LRU stack-distance structure per cache
//     side and emits log2-bucketed reuse-distance histograms. The
//     distances follow the standard reuse-distance semantics (every
//     access promotes its block, installs included), so a fully
//     associative LRU cache of C blocks hits exactly the accesses with
//     distance < C — the inclusion property the single-pass
//     multi-configuration engine of ROADMAP item 1 rests on, and the one
//     the cross-validation tests pin bit-for-bit against the naive
//     simulator.
//
//   - Heat counts per-set accesses, misses and evictions of the real
//     cache, the raw material of conflict-pressure heatmaps.
//
// Like internal/simtrace, the package is strictly passive: a Probe
// decorates a cache side, passing every access through and observing the
// real cache's Result without influencing it; a run whose Options arm
// nothing gets no recorder at all (Attach), every recorder hook the
// simulators call is a no-op on a nil *Recorder, and instrumented-off
// runs are bit-identical to builds that predate the instrumentation.
package explain

import (
	"fmt"

	"repro/internal/cache"
)

// Options selects which instruments a Recorder arms. The zero value arms
// nothing, so Attach returns no recorder for it; All() arms everything,
// which is what the CLI -explain flags do.
type Options struct {
	// ThreeC enables compulsory/capacity/conflict miss classification.
	ThreeC bool `json:"three_c,omitempty"`
	// Reuse enables the stack-distance reuse-distance histograms.
	Reuse bool `json:"reuse,omitempty"`
	// Heat enables the per-set access/miss/eviction pressure counters.
	Heat bool `json:"heat,omitempty"`
	// HeatBuckets bounds the downsampled heat rows embedded in reports;
	// zero selects DefaultHeatBuckets. Full-resolution counters stay
	// available on the recorder either way.
	HeatBuckets int `json:"heat_buckets,omitempty"`
}

// All returns options with every instrument armed.
func All() Options { return Options{ThreeC: true, Reuse: true, Heat: true} }

// Any reports whether at least one instrument is armed.
func (o Options) Any() bool { return o.ThreeC || o.Reuse || o.Heat }

// DefaultHeatBuckets is the report heat resolution when Options leaves
// HeatBuckets zero: fine enough to localize hot sets, small enough to
// embed in every ledger record.
const DefaultHeatBuckets = 64

// Recorder accumulates one run's explainability data across its cache
// sides. Construct with New, create one Probe per cache side, feed every
// access, read Report/ReportWarm after the run. Not safe for concurrent
// use; a recorder belongs to exactly one run.
type Recorder struct {
	opts   Options
	probes []*Probe
}

// New builds a recorder for one run.
func New(opts Options) *Recorder {
	if opts.HeatBuckets <= 0 {
		opts.HeatBuckets = DefaultHeatBuckets
	}
	return &Recorder{opts: opts}
}

// Attach is the attach rule the simulators apply: a recorder for one run,
// or nil when opts is nil or arms nothing, so a disarmed run takes the
// identical code path as an unexplained one.
func Attach(opts *Options) *Recorder {
	if opts == nil || !opts.Any() {
		return nil
	}
	return New(*opts)
}

// On reports whether the recorder exists and arms at least one
// instrument.
func (r *Recorder) On() bool { return r != nil && r.opts.Any() }

// Probe registers one cache side (label "I", "D" or "U") and returns its
// probe, which decorates inner. The shadows copy inner's capacity, block
// size, fetch size and allocation policy.
func (r *Recorder) Probe(label string, inner cache.Interface) (*Probe, error) {
	cfg := inner.Config()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("explain: %s: %w", label, err)
	}
	if cfg.SubBlocked() && cfg.BlockWords > 64 {
		return nil, fmt.Errorf("explain: %s: sub-block shadows support blocks up to 64 words, got %d",
			label, cfg.BlockWords)
	}
	p := newProbe(label, inner, cfg, r.opts)
	r.probes = append(r.probes, p)
	return p, nil
}

// MarkWarm snapshots every probe at the warm-start boundary, so warm and
// cold windows can be reported separately. Nil-safe like the simtrace
// equivalent.
func (r *Recorder) MarkWarm() {
	if r == nil {
		return
	}
	for _, p := range r.probes {
		p.markWarm()
	}
}

// Total3C returns the cumulative classification across all sides so far
// (zero unless ThreeC is armed).
func (r *Recorder) Total3C() ThreeC {
	var t ThreeC
	if r == nil {
		return t
	}
	for _, p := range r.probes {
		t = t.Add(p.c3)
	}
	return t
}

// CheckConservation verifies compulsory+capacity+conflict == observed
// misses on every probe. Registered with the selfcheck invariant battery,
// it is consistent at any point between accesses because the class
// buckets and the miss tally update together.
func (r *Recorder) CheckConservation() error {
	if r == nil || !r.opts.ThreeC {
		return nil
	}
	for _, p := range r.probes {
		if got := p.c3.Total(); got != p.misses {
			return fmt.Errorf("explain: side %s classified %d misses (%+v), observed %d",
				p.label, got, p.c3, p.misses)
		}
	}
	return nil
}

// Finish closes the run: conservation is re-verified per probe and the
// recorder's total classified misses are checked against the simulator's
// own miss count — a cheap final cross-check against the independent
// counter path even when the full selfcheck battery is off. Nil-safe.
func (r *Recorder) Finish(simulatorMisses int64) error {
	if r == nil {
		return nil
	}
	if err := r.CheckConservation(); err != nil {
		return err
	}
	if !r.opts.ThreeC {
		return nil
	}
	var classified int64
	for _, p := range r.probes {
		classified += p.misses
	}
	if classified != simulatorMisses {
		return fmt.Errorf("explain: probes observed %d misses, simulator counted %d",
			classified, simulatorMisses)
	}
	return nil
}

// Probe decorates one cache side: Read and Write pass each access to the
// inner cache and observe its Result on the way out, so the probe sees
// every access the real cache services, in order, and never changes one.
type Probe struct {
	inner cache.Interface
	label string
	opts  Options

	blockShift uint
	setMask    uint64
	sets       int

	// ThreeC state.
	inf    *infiniteShadow
	lru    *lruShadow
	c3     ThreeC
	misses int64

	// Reuse state.
	sd   *stackDist
	hist Hist

	// Heat state (full resolution).
	setAcc   []int64
	setMiss  []int64
	setEvict []int64

	refs int64
	warm probeSnap
}

// probeSnap is the warm-boundary snapshot of everything a report derives.
type probeSnap struct {
	taken    bool
	refs     int64
	misses   int64
	c3       ThreeC
	hist     Hist
	setAcc   []int64
	setMiss  []int64
	setEvict []int64
}

func newProbe(label string, inner cache.Interface, cfg cache.Config, opts Options) *Probe {
	p := &Probe{
		inner:      inner,
		label:      label,
		opts:       opts,
		blockShift: uint(log2(cfg.BlockWords)),
		setMask:    uint64(cfg.Sets() - 1),
		sets:       cfg.Sets(),
	}
	if opts.ThreeC {
		p.inf = newInfiniteShadow(cfg)
		p.lru = newLRUShadow(cfg)
	}
	if opts.Reuse {
		p.sd = newStackDist()
	}
	if opts.Heat {
		p.setAcc = make([]int64, p.sets)
		p.setMiss = make([]int64, p.sets)
		p.setEvict = make([]int64, p.sets)
	}
	return p
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Read services a load or instruction fetch through the inner cache and
// observes the result.
func (p *Probe) Read(addr uint64) cache.Result {
	res := p.inner.Read(addr)
	p.observe(addr, res, false)
	return res
}

// Write services a store through the inner cache and observes the result.
func (p *Probe) Write(addr uint64) cache.Result {
	res := p.inner.Write(addr)
	p.observe(addr, res, true)
	return res
}

// Config returns the inner cache's configuration.
func (p *Probe) Config() cache.Config { return p.inner.Config() }

func (p *Probe) observe(addr uint64, res cache.Result, isWrite bool) {
	p.refs++
	block := addr >> p.blockShift
	if p.opts.Heat {
		set := block & p.setMask
		p.setAcc[set]++
		if !res.Hit {
			p.setMiss[set]++
		}
		if res.Displaced {
			p.setEvict[set]++
		}
	}
	if p.opts.Reuse {
		p.hist.Add(p.sd.Access(block))
	}
	if p.opts.ThreeC {
		// Both shadows observe every access (their replacement state must
		// track the full stream); classification applies to real misses.
		infHit := p.inf.Access(addr, isWrite)
		lruHit := p.lru.Access(addr, isWrite)
		if !res.Hit {
			p.misses++
			switch {
			case !infHit:
				p.c3.Compulsory++
			case lruHit:
				p.c3.Conflict++
			default:
				p.c3.Capacity++
			}
		}
	}
}

func (p *Probe) markWarm() {
	p.warm = probeSnap{
		taken:    true,
		refs:     p.refs,
		misses:   p.misses,
		c3:       p.c3,
		hist:     p.hist.clone(),
		setAcc:   cloneInts(p.setAcc),
		setMiss:  cloneInts(p.setMiss),
		setEvict: cloneInts(p.setEvict),
	}
}

func cloneInts(v []int64) []int64 {
	if v == nil {
		return nil
	}
	out := make([]int64, len(v))
	copy(out, v)
	return out
}
