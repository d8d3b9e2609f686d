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
	"math/bits"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/system"
	"repro/internal/trace"
)

// side is one L1 as the behavioural pass drives it. The unchecked pass
// (slow == nil) calls the concrete *cache.Cache directly. With a checker
// attached, every access goes through the decorator stack instead (see
// system.NewL1): the shadow oracle diffs each result. Both calls return
// the same cache.Result from the same state transition, so the two routes
// record identical events and counters (the fast-path equivalence test
// pins this). The branch stays because sending every access through
// cache.Interface measured ~9% slower per reference
// (BenchmarkBuildProfile/dm, 2-vCPU x86-64 host). The pass branches at
// each access site rather than through a method: a method holding both
// calls is too large for the compiler to inline.
type side struct {
	c    *cache.Cache
	slow cache.Interface // the decorator stack; nil for the concrete cache
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

// fetchWords returns the fetch sizes of the caches serving ifetches and
// data references: a unified cache serves both.
func (o Org) fetchWords() (ifw, dfw int) {
	dfw = o.DCache.EffectiveFetchWords()
	if o.Unified {
		return dfw, dfw
	}
	return o.ICache.EffectiveFetchWords(), dfw
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

// event is one 16-byte record of a profile's event stream. A head record
// stands for one couplet that interacts with the memory system (any miss,
// or any store that must pass toward memory), plus the run of untimed
// couplets preceding it. A marker head carries no couplet at all: it pins
// the warm-start boundary inside the replay.
//
// A head's word holds the one address most events need, with the flags
// and the dOp above it: the ifetch address when the ifetch missed, and
// otherwise the data address. Extended addresses are 40 bits wide (an
// 8-bit PID above a 32-bit word address). The rare extra words follow the
// head as continuation records, one word each, in this order:
//   - the data address, when the ifetch missed and the replay reads the
//     data address too (flagXDAddr);
//   - the ifetch's dirty victim (flagXIVic);
//   - the data reference's dirty victim (flagXDVic).
//
// A victim word holds the block address below the write-back words. A
// continuation record's gaps are zero, and only its head tells it from a
// head, so the stream is read from its start (see decoded).
type event struct {
	gap          uint32 // non-event couplets since the previous event
	gapStoreHits uint32 // how many of those contained a store hit (cost 2)
	w            uint64 // head: address | flags<<flagsShift | dOp<<opShift; continuation: one word
}

// Event word layout.
const (
	addrBits   = 40 // extended word address: 8-bit PID above 32 address bits
	flagsShift = addrBits
	opShift    = flagsShift + 8
	wbShift    = addrBits // a victim word's write-back words

	addrMask      = 1<<addrBits - 1
	maxEventWords = 1<<16 - 1 // largest victim write back an event records (victim word bits 40–55)
)

// Flags in a head record. The producers pass the first four to
// eventLog.add, which sets the continuation flags.
const (
	flagMarker = 1 << iota // warm-start boundary, no couplet
	flagHasI               // the couplet has an ifetch
	flagIMiss              // the ifetch missed
	flagDAddr              // the replay reads the data address
	flagXDAddr             // a continuation holds the data address
	flagXIVic              // a continuation holds the ifetch's dirty victim
	flagXDVic              // a continuation holds the data reference's dirty victim

	flagsX = flagXDAddr | flagXIVic | flagXDVic
)

// decoded is one event of a stream: its head record and where its
// continuation records begin.
type decoded struct {
	event
	evs []event // the stream
	at  int     // the index of the first continuation record
}

// decode reads the event whose head record is d.evs[k] and returns the
// index of the next head record. The index comes from a count of the
// continuation flags rather than a branch per extra word: a mispredicted
// branch here discards the work the replay has started on the next
// events. The extra words are read where the replay needs them.
func (d *decoded) decode(k int) int {
	d.event = d.evs[k]
	d.at = k + 1
	return d.at + bits.OnesCount8(d.flags()&flagsX)
}

func (d *decoded) flags() uint8 { return uint8(d.w >> flagsShift) }
func (d *decoded) op() dOp      { return dOp(d.w >> opShift) }

// iAddr is the ifetch address, valid only under flagIMiss.
func (d *decoded) iAddr() uint64 { return d.w & addrMask }

// dAddr is the data address, valid only under flagDAddr.
func (d *decoded) dAddr() uint64 {
	if d.flags()&flagXDAddr != 0 {
		return d.evs[d.at].w
	}
	return d.w & addrMask
}

// iVic and dVic are the victim words (see fill), 0 for a clean victim.
func (d *decoded) iVic() uint64 {
	if d.flags()&flagXIVic == 0 {
		return 0
	}
	return d.evs[d.at+bits.OnesCount8(d.flags()&flagXDAddr)].w
}

func (d *decoded) dVic() uint64 {
	if d.flags()&flagXDVic == 0 {
		return 0
	}
	return d.evs[d.at+bits.OnesCount8(d.flags()&(flagXDAddr|flagXIVic))].w
}

// eventLog accumulates a build's records in chunks that double in size up
// to maxChunkEvents, so appending never copies the records already logged;
// take copies them once into an exact-size slice. The chunks die with the
// build, so a retained profile holds exactly its records and no append
// slack.
type eventLog struct {
	full [][]event // filled chunks, in order
	cur  []event   // the chunk being filled
	n    int       // records logged
}

const (
	minChunkEvents = 256
	maxChunkEvents = 1 << 16
)

// add encodes one event: its head record, then a continuation record per
// extra word (see event). flags holds the producer's flags; iAddr is read
// under flagIMiss and dAddr under flagDAddr. iVic and dVic are the victim
// words (see fill).
func (l *eventLog) add(gap, gapStoreHits uint32, flags uint8, op dOp, iAddr, dAddr, iVic, dVic uint64) {
	var head uint64
	switch {
	case flags&flagIMiss != 0:
		head = iAddr
		if flags&flagDAddr != 0 {
			flags |= flagXDAddr
		}
	case flags&flagDAddr != 0:
		head = dAddr
	}
	if iVic != 0 {
		flags |= flagXIVic
	}
	if dVic != 0 {
		flags |= flagXDVic
	}
	l.put(event{gap: gap, gapStoreHits: gapStoreHits,
		w: head | uint64(flags)<<flagsShift | uint64(op)<<opShift})
	if flags&flagXDAddr != 0 {
		l.put(event{w: dAddr})
	}
	if iVic != 0 {
		l.put(event{w: iVic})
	}
	if dVic != 0 {
		l.put(event{w: dVic})
	}
}

func (l *eventLog) put(e event) {
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

// take returns the logged records as one exact-size slice.
func (l *eventLog) take() []event {
	out := make([]event, 0, l.n)
	for _, c := range l.full {
		out = append(out, c...)
	}
	return append(out, l.cur...)
}

// Profile is the behavioural digest of (organization × trace): everything
// the timing phase needs, at about one 16-byte record per memory-system
// interaction (see event).
type Profile struct {
	Org       Org
	TraceName string

	events []event // head and continuation records (see event)
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

// Events returns the number of recorded miss events (markers and
// continuation records excluded).
func (p *Profile) Events() int {
	n := 0
	d := decoded{evs: p.events}
	for k := 0; k < len(p.events); {
		k = d.decode(k)
		if d.flags()&flagMarker == 0 {
			n++
		}
	}
	return n
}

// Bytes returns the heap the profile keeps alive: the Profile and its
// event stream, continuation records included.
func (p *Profile) Bytes() int {
	return int(unsafe.Sizeof(*p)) + cap(p.events)*int(unsafe.Sizeof(event{}))
}

// BuildProfile simulates the trace's cache behaviour against the
// organization and digests it into a Profile. The cache configurations'
// seeds determine random replacement exactly as in the system simulator, so
// a system.System built from the same configs observes the identical
// hit/miss sequence.
func BuildProfile(org Org, t *trace.Trace) (*Profile, error) {
	return BuildProfileChecked(org, t, nil)
}

// BuildProfileChecked is BuildProfile with the differential oracle
// attached. When opts is non-nil, every cache access is diffed against the
// check package's oracle and structural invariants run at the configured
// interval; the first divergence aborts the build with a typed
// *check.Divergence error. A nil opts is exactly BuildProfile. The other
// instruments (cycle attribution, timelines, 3C explanations) attach only
// to the system simulator.
//
// The L1 pair comes from system.NewL1, as the system simulator's does.
// Without a checker, the pass calls the concrete cache (see side);
// otherwise every access goes through the decorator stack.
func BuildProfileChecked(org Org, t *trace.Trace, opts *check.Options) (*Profile, error) {
	if err := org.Validate(); err != nil {
		return nil, err
	}
	// Reference kinds are checked inside the pass, which visits every
	// reference anyway.
	if err := t.ValidateWarmStart(); err != nil {
		return nil, err
	}
	l1, err := system.NewL1(org.ICache, org.DCache, org.Unified, t.Name, opts, nil)
	if err != nil {
		return nil, err
	}
	p := &Profile{Org: org, TraceName: t.Name}
	one := [1]member{{p: p}}
	ifw, dfw := org.fetchWords()
	w := walk{
		ifw: ifw, dfw: dfw,
		ic:  side{c: l1.I.Real, slow: l1.I.Stack},
		dc:  side{c: l1.D.Real, slow: l1.D.Stack},
		wt:  org.DCache.WritePolicy == cache.WriteThrough,
		chk: l1.Chk,
	}
	if err := w.run(t, one[:]); err != nil {
		return nil, err
	}
	tally := p.total.SelfCheckTally()
	if err := l1.Chk.Finish(&tally); err != nil {
		return nil, err
	}
	return p, nil
}

// walk is the behavioural pass: one walk of a trace that builds the
// profiles of a group of members at once. The walk does the work the
// members share: it decodes each couplet, checks its kinds, counts the
// references once, places the warm-start marker and computes every gap.
// Only the probe differs between the two member kinds:
//   - one cache of any organization (BuildProfile), probed through side,
//     with the checker polled;
//   - a direct-mapped size family (BuildFamily), probed through
//     familySide, which stops at the first size that hits.
//
// The members are passed to the walk's methods rather than held in it, so
// that a one-cache build keeps its member on the stack.
type walk struct {
	ifw, dfw int             // fetch words of the ifetch and data sides
	shared   system.Counters // the reference counts, common to every member
	// couplet and stores count the couplets walked and the store
	// couplets among them.
	couplet, stores int64

	// One cache (fam == nil).
	ic, dc side
	wt     bool // the data cache writes through
	chk    *check.Checker

	fam *family // a direct-mapped size family, smallest size first
}

// member is one profile a walk builds.
type member struct {
	p    *Profile
	log  eventLog
	last gapMark
}

// gapMark is where a member's current gap began: the couplet after its
// last event, and how many store couplets preceded that point. A member's
// gap is the couplets since its mark, and the gap's store hits are the
// store couplets since then. That holds for every cache: every store miss
// and every write-through store is an event (flagDAddr), so a store
// couplet outside an event is a store hit.
type gapMark struct {
	couplet, stores int64
}

// couplet is one decoded couplet: an ifetch, a data reference, or both.
type couplet struct {
	hasI, load, store bool
	iAddr, dAddr      uint64
}

// run walks every couplet of the trace through the members and leaves
// each member's profile complete.
func (w *walk) run(t *trace.Trace, ms []member) error {
	refs := t.Refs
	warmTaken := t.WarmStart == 0
	for i := 0; i < len(refs); {
		if w.chk.Diverged() {
			return w.chk.Err()
		}
		if !warmTaken && i >= t.WarmStart {
			w.markWarm(ms)
			warmTaken = true
		}
		n := trace.CoupletLen(refs, i)
		w.shared.Couplets++
		w.shared.Refs += int64(n)

		var c couplet
		di := i // index of the couplet's data reference, -1 for none
		switch first := refs[i]; first.Kind {
		case trace.Ifetch:
			w.shared.Ifetches++
			c.hasI = true
			c.iAddr = first.Extended()
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
			c.dAddr = dref.Extended()
			if dref.Kind == trace.Load {
				w.shared.Loads++
				c.load = true
			} else {
				w.shared.Stores++
				c.store = true
			}
		}

		if w.fam != nil {
			w.probeFamily(ms, &c)
		} else {
			w.probeOne(&ms[0], &c)
		}
		w.couplet++
		if c.store {
			w.stores++
		}
		i += n
	}
	if !warmTaken {
		w.markWarm(ms)
	}
	for k := range ms {
		m := &ms[k]
		w.settle(m.p)
		m.p.tailGap = uint32(w.couplet - m.last.couplet)
		m.p.tailGapStoreHits = uint32(w.stores - m.last.stores)
		m.p.events = m.log.take()
		m.log = eventLog{}
	}
	return nil
}

// probeOne drives the couplet through the one cache and logs its event if
// it interacts: its ifetch missed, or the replay reads its data address (a
// data miss or a write-through store).
func (w *walk) probeOne(m *member, c *couplet) {
	p := m.p
	var (
		flags      uint8
		op         = dNone
		iVic, dVic uint64
	)
	if c.hasI {
		flags = flagHasI
		var res cache.Result
		if w.ic.slow == nil {
			res = w.ic.c.Read(c.iAddr)
		} else {
			res = w.ic.slow.Read(c.iAddr)
		}
		if !res.Hit {
			p.total.IfetchMisses++
			flags |= flagIMiss
			iVic = p.fill(w.ifw, res.Victim)
		}
	}
	switch {
	case c.load:
		var res cache.Result
		if w.dc.slow == nil {
			res = w.dc.c.Read(c.dAddr)
		} else {
			res = w.dc.slow.Read(c.dAddr)
		}
		if res.Hit {
			op = dLoadHit
		} else {
			p.total.LoadMisses++
			op = dLoadMiss
			flags |= flagDAddr
			dVic = p.fill(w.dfw, res.Victim)
		}
	case c.store:
		var res cache.Result
		if w.dc.slow == nil {
			res = w.dc.c.Write(c.dAddr)
		} else {
			res = w.dc.slow.Write(c.dAddr)
		}
		switch {
		case res.Hit:
			op = dStoreHit
			if w.wt {
				p.total.StoreThroughWords++
				flags |= flagDAddr
			}
		case !res.Allocated:
			p.total.StoreMisses++
			p.total.StoreThroughWords++
			op = dStoreMissNoAlloc
			flags |= flagDAddr
		default:
			p.total.StoreMisses++
			op = dStoreMissAlloc
			flags |= flagDAddr
			if w.wt {
				p.total.StoreThroughWords++
			}
			dVic = p.fill(w.dfw, res.Victim)
		}
	}
	if flags&(flagIMiss|flagDAddr) != 0 {
		w.emit(m, c, flags, op, iVic, dVic)
	}
}

// emit logs the member's event for the couplet, with the gap since its
// mark, and moves the mark past the couplet.
func (w *walk) emit(m *member, c *couplet, flags uint8, op dOp, iVic, dVic uint64) {
	m.log.add(uint32(w.couplet-m.last.couplet), uint32(w.stores-m.last.stores), flags, op, c.iAddr, c.dAddr, iVic, dVic)
	m.last = gapMark{w.couplet + 1, w.stores}
	if c.store {
		m.last.stores++
	}
}

// markWarm snapshots every member's counters at the warm-start boundary
// and logs each member's marker event with the gap pending there.
func (w *walk) markWarm(ms []member) {
	for k := range ms {
		m := &ms[k]
		w.settle(m.p)
		m.p.warmSnap = m.p.total
		m.log.add(uint32(w.couplet-m.last.couplet), uint32(w.stores-m.last.stores), flagMarker, dNone, 0, 0, 0, 0)
		m.last = gapMark{w.couplet, w.stores}
	}
}

// settle copies the shared reference counts into a member's totals and
// derives its store hits: every store misses or hits.
func (w *walk) settle(p *Profile) {
	tot := &p.total
	tot.Refs, tot.Couplets = w.shared.Refs, w.shared.Couplets
	tot.Ifetches, tot.Loads, tot.Stores = w.shared.Ifetches, w.shared.Loads, w.shared.Stores
	tot.StoreHits = tot.Stores - tot.StoreMisses
}

// fill accounts the traffic of a read (or write-allocate) miss and returns
// the word the event records of its victim: a dirty victim's block address
// below its write-back words, 0 for a clean one.
func (p *Profile) fill(fetchWords int, wb cache.Writeback) uint64 {
	p.total.ReadWordsFetched += int64(fetchWords)
	if wb.Words == 0 {
		return 0
	}
	p.total.WritebackBlocks++
	p.total.WritebackWords += int64(wb.Words)
	p.total.WritebackDirtyWords += int64(wb.DirtyWords)
	return wb.BlockAddr | uint64(wb.Words)<<wbShift
}
