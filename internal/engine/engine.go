// Package engine implements the fast two-phase simulator.
//
// The paper's key methodological observation — which its own simulation
// farm exploited by preprocessing each trace "to extract all the system
// independent statistics" — is that a cache's hit/miss behaviour depends
// only on the organization (size, set size, block size, write policy),
// never on the cycle time or memory speed. The engine therefore simulates a
// trace against an organization once (BuildProfile), recording a compact
// stream of miss events, and then replays that stream against any number of
// timing parameterizations (Replay), each replay costing time proportional
// to the number of misses rather than the number of references.
//
// Replay reproduces the single-phase system simulator cycle-for-cycle for
// the base fetch policy (whole-block fetch, no second-level cache); the
// cross-validation tests assert exact equality of cycle counts and stall
// statistics across many organizations, timings and traces. Early-continue
// fetch policies and multilevel hierarchies change which couplets can stall,
// so those run on the system simulator instead.
package engine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/explain"
	"repro/internal/system"
	"repro/internal/trace"
)

// side is one L1 as the behavioural pass drives it. The unchecked,
// unexplained pass (slow == nil) calls the concrete cache's register-sized
// ReadOutcome and WriteOutcome, so no access builds a cache.Result. With a
// checker or an explain probe attached, every access takes the decorated
// route instead (readSlow, writeSlow; see system.NewL1): the shadow oracle
// diffs, and the probe observes, the full Result. Both routes run the same
// state transition and report it in the same form, so they record
// identical events and counters (the fast-path equivalence test pins
// this). The pass branches on slow at each access site rather than through
// a method: a method holding both calls is too large for the compiler to
// inline.
type side struct {
	c    *cache.Cache
	slow cache.Interface // the decorated route; nil for the fast path
}

func (s *side) readSlow(addr uint64) (bool, cache.Writeback) {
	res := s.slow.Read(addr)
	return res.Hit, res.Victim.Writeback()
}

func (s *side) writeSlow(addr uint64) (bool, bool, cache.Writeback) {
	res := s.slow.Write(addr)
	return res.Hit, res.Allocated, res.Victim.Writeback()
}

// Org is the timing-independent part of a system configuration: the cache
// organizations. Write buffer depth and all memory parameters belong to the
// timing phase.
type Org struct {
	ICache  cache.Config
	DCache  cache.Config
	Unified bool
}

// Validate reports configuration errors.
func (o Org) Validate() error {
	if !o.Unified {
		if err := o.ICache.Validate(); err != nil {
			return fmt.Errorf("engine: icache: %w", err)
		}
		if o.ICache.BlockWords > maxEventWords {
			return fmt.Errorf("engine: icache: block %d words exceeds the %d-word limit of a miss event", o.ICache.BlockWords, maxEventWords)
		}
	}
	if err := o.DCache.Validate(); err != nil {
		return fmt.Errorf("engine: dcache: %w", err)
	}
	if o.DCache.BlockWords > maxEventWords {
		return fmt.Errorf("engine: dcache: block %d words exceeds the %d-word limit of a miss event", o.DCache.BlockWords, maxEventWords)
	}
	return nil
}

// dOp encodes the data side of an event couplet.
type dOp uint8

const (
	dNone dOp = iota
	dLoadHit
	dStoreHit // relevant in events for couplet cost and write-through sends
	dLoadMiss
	dStoreMissNoAlloc
	dStoreMissAlloc
)

// event is one couplet that interacts with the memory system (any miss, or
// any store that must pass toward memory), plus the run of untimed couplets
// preceding it. A marker event carries no couplet at all: it pins the
// warm-start boundary inside the replay.
//
// An event is 40 bytes. Extended addresses are 40 bits wide (an 8-bit PID
// above a 32-bit word address), so each side's reference packs into one
// word with room above it for the victim's write-back size (16 bits) and
// a tag byte: the I word's tag holds the flag* bits, the D word's the dOp.
// The victim block addresses are stored only for dirty victims, the only
// ones the replay writes back.
type event struct {
	gap          uint32 // non-event couplets since the previous event
	gapStoreHits uint32 // how many of those contained a store hit (cost 2)
	i            uint64 // ifetch address | victim write-back words | flags
	iVic         uint64 // ifetch victim block address (dirty victims only)
	d            uint64 // data address | victim write-back words | dOp
	dVic         uint64 // data victim block address (dirty victims only)
}

// Event word layout.
const (
	addrBits = 40 // extended word address: 8-bit PID above 32 address bits
	wbShift  = addrBits
	wbBits   = 16
	tagShift = wbShift + wbBits

	addrMask      = 1<<addrBits - 1
	maxEventWords = 1<<wbBits - 1 // largest victim write back an event holds
)

// Flags in the I word's tag byte.
const (
	flagMarker = 1 << iota // warm-start boundary, no couplet
	flagHasI               // the couplet has an ifetch
	flagIMiss              // the ifetch missed
)

// packRef packs one side of an event into a word.
func packRef(addr uint64, wbWords uint64, tag uint8) uint64 {
	return addr | wbWords<<wbShift | uint64(tag)<<tagShift
}

func (e *event) flags() uint8   { return uint8(e.i >> tagShift) }
func (e *event) iAddr() uint64  { return e.i & addrMask }
func (e *event) iVicW() int     { return int(e.i >> wbShift & maxEventWords) }
func (e *event) dOp() dOp       { return dOp(e.d >> tagShift) }
func (e *event) dAddr() uint64  { return e.d & addrMask }
func (e *event) dVicW() int     { return int(e.d >> wbShift & maxEventWords) }
func (e *event) isMarker() bool { return e.flags()&flagMarker != 0 }

// eventLog accumulates a build's events in chunks that double in size up
// to maxChunkEvents, so appending never copies the events already logged;
// take copies them once into an exact-size slice. The chunks die with the
// build, so a retained profile holds exactly its events and no append
// slack.
type eventLog struct {
	full [][]event // filled chunks, in order
	cur  []event   // the chunk being filled
	n    int       // events logged
}

const (
	minChunkEvents = 256
	maxChunkEvents = 1 << 16
)

func (l *eventLog) add(e event) {
	if len(l.cur) == cap(l.cur) {
		l.grow()
	}
	l.cur = append(l.cur, e)
	l.n++
}

func (l *eventLog) grow() {
	if cap(l.cur) > 0 {
		l.full = append(l.full, l.cur)
	}
	l.cur = make([]event, 0, min(max(2*cap(l.cur), minChunkEvents), maxChunkEvents))
}

// take returns the logged events as one exact-size slice.
func (l *eventLog) take() []event {
	out := make([]event, 0, l.n)
	for _, c := range l.full {
		out = append(out, c...)
	}
	return append(out, l.cur...)
}

// Profile is the behavioural digest of (organization × trace): everything
// the timing phase needs, at one record per memory-system interaction.
type Profile struct {
	Org       Org
	TraceName string

	events []event
	// tailGap counts trailing non-event couplets after the last event.
	tailGap          uint32
	tailGapStoreHits uint32

	// Behavioural statistics, independent of timing.
	total    system.Counters // cycle and stall fields zero here
	warmSnap system.Counters // totals at the warm boundary
}

// TotalCounters returns the behavioural statistics of the whole trace
// (timing fields are zero; use Replay for cycles).
func (p *Profile) TotalCounters() system.Counters { return p.total }

// WarmCounters returns the behavioural statistics of the measured window
// after the warm-start boundary (timing fields are zero).
func (p *Profile) WarmCounters() system.Counters { return p.total.Sub(p.warmSnap) }

// Events returns the number of recorded miss events (markers excluded).
func (p *Profile) Events() int {
	n := 0
	for k := range p.events {
		if !p.events[k].isMarker() {
			n++
		}
	}
	return n
}

// BuildProfile simulates the trace's cache behaviour against the
// organization and digests it into a Profile. The cache configurations'
// seeds determine random replacement exactly as in the system simulator, so
// a system.System built from the same configs observes the identical
// hit/miss sequence.
func BuildProfile(org Org, t *trace.Trace) (*Profile, error) {
	return BuildProfileExplained(org, t, nil, nil)
}

// BuildProfileExplained is BuildProfile with the instruments attached.
// When opts is non-nil, every cache access is diffed against the check
// package's oracle and structural invariants run at the configured
// interval; the first divergence aborts the build with a typed
// *check.Divergence error. When exp arms an instrument, every access also
// feeds the recorder's shadow models (3C classification, reuse distances,
// set pressure), and the build finishes by verifying 3C conservation
// against the profile's own miss counters. The behavioural pass sees every
// reference exactly once, so the recorder observes the same stream the
// system simulator would. A nil opts and a nil or disarmed exp are exactly
// BuildProfile.
//
// The L1 pair comes from system.NewL1, as the system simulator's does. With
// no instrument attached, the pass takes the fast access path (see side);
// otherwise every access takes the decorated route.
func BuildProfileExplained(org Org, t *trace.Trace, opts *check.Options, exp *explain.Recorder) (*Profile, error) {
	if err := org.Validate(); err != nil {
		return nil, err
	}
	// Reference kinds are checked inside the pass, which visits every
	// reference anyway.
	if err := t.ValidateWarmStart(); err != nil {
		return nil, err
	}
	l1, err := system.NewL1(org.ICache, org.DCache, org.Unified, t.Name, opts, exp)
	if err != nil {
		return nil, err
	}
	ic := side{c: l1.I.Real, slow: l1.I.Stack}
	dc := side{c: l1.D.Real, slow: l1.D.Stack}

	p := &Profile{Org: org, TraceName: t.Name}
	var log eventLog
	if err := p.simulate(t, &ic, &dc, l1.Chk, exp, &log); err != nil {
		return nil, err
	}
	p.events = log.take()
	tally := p.total.SelfCheckTally()
	if err := l1.Chk.Finish(&tally); err != nil {
		return nil, err
	}
	if err := exp.Finish(p.total.IfetchMisses + p.total.LoadMisses + p.total.StoreMisses); err != nil {
		return nil, err
	}
	return p, nil
}

// simulate is the behavioural pass proper: it drives every couplet of the
// trace through the caches, accumulates the profile's counters and gaps,
// and logs the events.
func (p *Profile) simulate(t *trace.Trace, ic, dc *side, chk *check.Checker, exp *explain.Recorder, log *eventLog) error {
	org := p.Org
	wtThrough := org.DCache.WritePolicy == cache.WriteThrough
	ifw := org.ICache.EffectiveFetchWords()
	if org.Unified {
		ifw = org.DCache.EffectiveFetchWords()
	}
	dfw := org.DCache.EffectiveFetchWords()

	refs := t.Refs
	var gap, gapStoreHits uint32
	warmTaken := t.WarmStart == 0

	for i := 0; i < len(refs); {
		if chk.Diverged() {
			return chk.Err()
		}
		if !warmTaken && i >= t.WarmStart {
			p.markWarm(log, gap, gapStoreHits, exp)
			gap, gapStoreHits = 0, 0
			warmTaken = true
		}
		n := trace.CoupletLen(refs, i)
		p.total.Couplets++
		p.total.Refs += int64(n)

		var (
			iWord, iVic, dWord, dVic uint64
			op                       = dNone
			interacts                bool
		)
		di := i // index of the couplet's data reference, -1 for none
		switch first := refs[i]; first.Kind {
		case trace.Ifetch:
			p.total.Ifetches++
			addr := first.Extended()
			flags := uint8(flagHasI)
			var wbWords uint64
			var hit bool
			var wb cache.Writeback
			if ic.slow == nil {
				hit, wb = ic.c.ReadOutcome(addr)
			} else {
				hit, wb = ic.readSlow(addr)
			}
			if !hit {
				p.total.IfetchMisses++
				flags |= flagIMiss
				interacts = true
				wbWords, iVic = p.fill(ifw, wb)
			}
			iWord = packRef(addr, wbWords, flags)
			di = -1
			if n == 2 {
				di = i + 1
			}
		case trace.Load, trace.Store:
		default:
			return t.KindError(i)
		}

		if di >= 0 {
			// CoupletLen pairs an ifetch only with a load or store, so
			// the data reference's kind is one of the two.
			dref := refs[di]
			addr := dref.Extended()
			var wbWords uint64
			if dref.Kind == trace.Load {
				p.total.Loads++
				var hit bool
				var wb cache.Writeback
				if dc.slow == nil {
					hit, wb = dc.c.ReadOutcome(addr)
				} else {
					hit, wb = dc.readSlow(addr)
				}
				if hit {
					op = dLoadHit
				} else {
					p.total.LoadMisses++
					op = dLoadMiss
					interacts = true
					wbWords, dVic = p.fill(dfw, wb)
				}
			} else {
				p.total.Stores++
				var hit, allocated bool
				var wb cache.Writeback
				if dc.slow == nil {
					hit, allocated, wb = dc.c.WriteOutcome(addr)
				} else {
					hit, allocated, wb = dc.writeSlow(addr)
				}
				switch {
				case hit:
					p.total.StoreHits++
					op = dStoreHit
					if wtThrough {
						p.total.StoreThroughWords++
						interacts = true
					}
				case !allocated:
					p.total.StoreMisses++
					p.total.StoreThroughWords++
					op = dStoreMissNoAlloc
					interacts = true
				default:
					p.total.StoreMisses++
					op = dStoreMissAlloc
					interacts = true
					if wtThrough {
						p.total.StoreThroughWords++
					}
					wbWords, dVic = p.fill(dfw, wb)
				}
			}
			dWord = packRef(addr, wbWords, uint8(op))
		}

		if interacts {
			log.add(event{gap: gap, gapStoreHits: gapStoreHits,
				i: iWord, iVic: iVic, d: dWord, dVic: dVic})
			gap, gapStoreHits = 0, 0
		} else {
			gap++
			if op == dStoreHit {
				gapStoreHits++
			}
		}
		i += n
	}
	if !warmTaken {
		p.markWarm(log, gap, gapStoreHits, exp)
		gap, gapStoreHits = 0, 0
	}
	p.tailGap = gap
	p.tailGapStoreHits = gapStoreHits
	return nil
}

// markWarm snapshots the counters at the warm-start boundary and appends
// the marker event that carries the gap pending there. (A method rather
// than a closure: a closure capturing the gap counters would keep them in
// memory for the whole pass.)
func (p *Profile) markWarm(log *eventLog, gap, gapStoreHits uint32, exp *explain.Recorder) {
	p.warmSnap = p.total
	exp.MarkWarm()
	log.add(event{gap: gap, gapStoreHits: gapStoreHits, i: packRef(0, 0, flagMarker)})
}

// fill accounts the traffic of a read (or write-allocate) miss and returns
// what the event records of its victim: the write-back size and block
// address of a dirty victim, zeros for a clean one.
func (p *Profile) fill(fetchWords int, wb cache.Writeback) (wbWords, vicAddr uint64) {
	p.total.ReadWordsFetched += int64(fetchWords)
	if wb.Words == 0 {
		return 0, 0
	}
	p.total.WritebackBlocks++
	p.total.WritebackWords += int64(wb.Words)
	p.total.WritebackDirtyWords += int64(wb.DirtyWords)
	return uint64(wb.Words), wb.BlockAddr
}
