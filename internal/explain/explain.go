// Package explain is the explainability layer of the simulator core: an
// opt-in recorder threaded through the system simulator that answers
// *why* references miss, not just that they do.
//
// Its one instrument, ThreeC, classifies every real-cache miss as
// compulsory, capacity or conflict (Hill & Smith, IEEE TC 1989) by running
// two shadow models in lockstep with the real cache: an infinite cache
// (would a cache of unbounded capacity with the same block, fetch and
// allocation policy have hit?) and a fully-associative LRU cache of equal
// capacity (would full associativity have hit?). A miss the infinite cache
// also takes is compulsory; a miss the fully-associative cache would have
// absorbed is conflict; the rest is capacity. The three cases are
// exhaustive and disjoint, so compulsory+capacity+conflict == misses holds
// by construction — the conservation invariant the check battery and
// Finish both enforce.
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

// Options selects whether a run is explained. The zero value arms
// nothing, so Attach returns no recorder for it; the CLI -explain flag
// arms ThreeC.
type Options struct {
	// ThreeC enables compulsory/capacity/conflict miss classification.
	ThreeC bool `json:"three_c,omitempty"`
}

// Recorder accumulates one run's 3C classification across its cache
// sides. Attach builds it, one Probe per cache side sees every access,
// and Report/ReportWarm read it after the run. Not safe for concurrent
// use; a recorder belongs to exactly one run.
type Recorder struct {
	probes []*Probe
}

// Attach is the attach rule the simulators apply: a recorder for one run,
// or nil when opts is nil or arms nothing, so a disarmed run takes the
// identical code path as an unexplained one.
func Attach(opts *Options) *Recorder {
	if opts == nil || !opts.ThreeC {
		return nil
	}
	return &Recorder{}
}

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
	p := &Probe{inner: inner, label: label, inf: newInfiniteShadow(cfg), lru: newLRUShadow(cfg)}
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
// (zero on a nil recorder).
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
	if r == nil {
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

	inf    *infiniteShadow
	lru    *lruShadow
	c3     ThreeC
	misses int64

	refs int64
	warm probeSnap
}

// probeSnap is the warm-boundary snapshot of everything a report derives.
type probeSnap struct {
	refs   int64
	misses int64
	c3     ThreeC
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
	// Both shadows observe every access (their replacement state must
	// track the full stream); classification applies to real misses.
	infHit := p.inf.Access(addr, isWrite)
	lruHit := p.lru.Access(addr, isWrite)
	if res.Hit {
		return
	}
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

func (p *Probe) markWarm() {
	p.warm = probeSnap{refs: p.refs, misses: p.misses, c3: p.c3}
}
