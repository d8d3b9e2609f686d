package engine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/mem"
	"repro/internal/system"
	"repro/internal/writebuf"
)

// Timing is the timing-phase parameterization applied to a Profile.
type Timing struct {
	// CycleNs is the CPU/cache cycle time in nanoseconds.
	CycleNs int
	// Mem is the main memory configuration.
	Mem mem.Config
	// WriteBufDepth is the L1 write buffer depth (the paper uses 4).
	WriteBufDepth int
}

// Validate reports parameter errors.
func (t Timing) Validate() error {
	if t.CycleNs <= 0 {
		return fmt.Errorf("engine: non-positive cycle time %d ns", t.CycleNs)
	}
	if t.WriteBufDepth < 0 {
		return fmt.Errorf("engine: negative write buffer depth %d", t.WriteBufDepth)
	}
	return t.Mem.Validate()
}

// CycleTiming is the cycle-domain form of a Timing: everything a replay
// depends on. Main memory's latency, transfer rate and recovery time are
// quantized to whole CPU cycles, so a replay sees the cycle time only
// through those cycle counts. Timings with equal cycle-domain forms replay
// to identical counters; their Results differ only in CycleNs, and so in
// execution time.
type CycleTiming struct {
	// Mem is the quantized memory timing, with CycleNs cleared.
	Mem mem.Timing
	// WriteBufDepth is the L1 write buffer depth.
	WriteBufDepth int
}

// CycleDomain validates the timing and returns its cycle-domain form.
func (t Timing) CycleDomain() (CycleTiming, error) {
	if err := t.Validate(); err != nil {
		return CycleTiming{}, err
	}
	tm, err := t.Mem.Quantize(t.CycleNs)
	if err != nil {
		return CycleTiming{}, err
	}
	tm.CycleNs = 0
	return CycleTiming{Mem: tm, WriteBufDepth: t.WriteBufDepth}, nil
}

// memSink adapts the memory unit to the write buffer (addresses are
// irrelevant to main memory timing).
type memSink struct{ unit *mem.Unit }

func (m *memSink) StartWrite(now int64, addr uint64, words int) int64 {
	return m.unit.StartWrite(now, words)
}

func (m *memSink) NextFree() int64 { return m.unit.FreeAt }

// lane is one cycle-domain timing's state in a replay: its memory unit and
// write buffer, its clock and warm-boundary snapshot, and its optional
// checker. A replay steps every lane through the same event stream.
type lane struct {
	unit *mem.Unit
	buf  *writebuf.Buffer
	chk  *check.Checker // nil unless the lane is audited

	ifetch, dfetch fetchUnit
	now            int64
	warm           system.Counters // timing counters at the warm boundary
	warmSeen       bool
}

// fetchUnit is one cache's fetch size and its transfer time at the
// lane's timing, computed once per replay rather than on every miss.
type fetchUnit struct {
	words, cycles int
}

// init builds the lane's memory unit and write buffer for the profile at
// the cycle-domain timing and attaches the checker.
func (ln *lane) init(p *Profile, ct CycleTiming, chk *check.Checker) error {
	tm := ct.Mem
	ln.unit = mem.NewUnit(tm)
	ln.chk = chk
	var err error
	if ln.buf, err = writebuf.New(ct.WriteBufDepth, &memSink{unit: ln.unit}); err != nil {
		return err
	}
	chk.AuditBuffer("l1buf", ln.buf, ct.WriteBufDepth)
	ifw, dfw := p.Org.fetchWords()
	ln.ifetch = fetchUnit{ifw, tm.TransferCycles(ifw)}
	ln.dfetch = fetchUnit{dfw, tm.TransferCycles(dfw)}
	return nil
}

// missFetch mirrors system.(*System).missFetch for the whole-block
// completion policy with main memory downstream. f is the cache's fetch
// unit; vic is the event's victim word (0 for a clean miss).
func (ln *lane) missFetch(start int64, f fetchUnit, addr, vic uint64) int64 {
	wbWords := int(vic >> wbShift)
	fetchAddr := addr &^ uint64(f.words-1)
	if ln.buf.Len() > 0 { // an empty buffer has nothing to drain or match
		ln.buf.Drain(start)
		ln.buf.FlushMatching(start, fetchAddr, f.words)
	}
	dataAt, _ := ln.unit.StartFill(start, f.cycles, wbWords)
	complete := dataAt
	if wbWords > 0 {
		if rel := ln.buf.Enqueue(dataAt, vic&addrMask, wbWords, dataAt); rel > complete {
			complete = rel
		}
	}
	return complete
}

// storeThrough mirrors the system's write-buffer enqueue for a store that
// passes toward memory: drain at the access time, enqueue one word at the
// completion time, stall if the buffer is full.
func (ln *lane) storeThrough(now, done int64, addr uint64) int64 {
	ln.buf.Drain(now)
	if rel := ln.buf.Enqueue(done, addr, 1, done); rel > done {
		done = rel
	}
	return done
}

// Replay runs the timing phase over the profile and returns the same Result
// the system simulator would produce for the equivalent configuration
// (whole-block fetch, no L2). The cost is proportional to the number of
// events, not the number of references.
func (p *Profile) Replay(t Timing) (system.Result, error) {
	return p.ReplayChecked(t, nil)
}

// ReplayChecked is Replay with the differential oracle attached. When
// opts is non-nil, the write buffer is audited against the check
// package's naive FIFO model: every enqueue and start is verified for FIFO
// order and depth bounds, and the buffer's structural invariants run at
// the end of the replay; the first violation aborts the replay with a
// typed *check.Divergence error. A nil opts is exactly Replay. Cycle
// attribution, timelines and interval series attach only to the system
// simulator, which reproduces the replay's Result cycle for cycle.
//
// The replay itself sees only the timing's cycle-domain form (see
// CycleTiming); the cycle time is stamped on the Result afterwards.
func (p *Profile) ReplayChecked(t Timing, opts *check.Options) (system.Result, error) {
	ct, err := t.CycleDomain()
	if err != nil {
		return system.Result{}, err
	}
	var chk *check.Checker
	if opts != nil {
		chk = check.New(opts)
		chk.SetContext(fmt.Sprintf("trace=%s dcache=%v cycle=%dns", p.TraceName, p.Org.DCache, t.CycleNs))
	}
	var one [1]lane
	if err := one[0].init(p, ct, chk); err != nil {
		return system.Result{}, err
	}
	if err := p.replay(one[:]); err != nil {
		return system.Result{}, err
	}
	res, err := p.finish(&one[0])
	if err != nil {
		return system.Result{}, err
	}
	res.CycleNs = t.CycleNs
	return res, nil
}

// ReplayLanes replays the profile at every cycle-domain timing in one walk
// of its events, one lane per timing, and returns the Results in timing
// order. Each Result equals Replay's at any timing with that cycle-domain
// form, except that its CycleNs is zero: nothing here knows the cycle
// time. No checker attaches; ReplayChecked runs checked replays.
func (p *Profile) ReplayLanes(cts []CycleTiming) ([]system.Result, error) {
	lanes := make([]lane, len(cts))
	for l, ct := range cts {
		if err := lanes[l].init(p, ct, nil); err != nil {
			return nil, err
		}
	}
	if err := p.replay(lanes); err != nil {
		return nil, err
	}
	out := make([]system.Result, len(lanes))
	for l := range lanes {
		var err error
		if out[l], err = p.finish(&lanes[l]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// replay is the timing phase: one walk of the event stream that steps
// every lane through each event in turn. An event's head is decoded once
// for all lanes; a victim word is read in the miss branch that writes it
// back. The lanes of one event mostly take the same branches, so the
// later lanes' branches predict well.
func (p *Profile) replay(lanes []lane) error {
	wt := p.Org.DCache.WritePolicy == cache.WriteThrough
	ev := decoded{evs: p.events}
	for k := 0; k < len(p.events); {
		k = ev.decode(k)
		gap, gapStoreHits := int64(ev.gap), int64(ev.gapStoreHits)
		flags, op := ev.flags(), ev.op()
		iAddr, dAddr := ev.iAddr(), ev.dAddr()
		for l := range lanes {
			ln := &lanes[l]
			if ln.chk.Diverged() {
				return ln.chk.Err()
			}
			// Gap couplets cost one base cycle each plus one store cycle
			// per contained store hit.
			now := ln.now + gap + gapStoreHits
			if flags&flagMarker != 0 {
				ln.warm = system.Counters{
					Cycles:             now,
					BufFullStallCycles: ln.buf.FullStallCycles,
					BufMatchEvents:     ln.buf.MatchEvents,
					MemReads:           ln.unit.Reads,
					MemWrites:          ln.unit.Writes,
					MemWaitCycles:      ln.unit.WaitCycles,
					MemBusyCycles:      ln.unit.BusyCycles,
				}
				ln.warmSeen = true
				ln.now = now
				continue
			}
			comp := now + 1
			if flags&flagIMiss != 0 {
				if c := ln.missFetch(now+1, ln.ifetch, iAddr, ev.iVic()); c > comp {
					comp = c
				}
			}
			switch op {
			case dNone, dLoadHit:
				// no data reference, or a one-cycle hit covered by comp
			case dStoreHit:
				done := now + 2
				if wt {
					done = ln.storeThrough(now, done, dAddr)
				}
				if done > comp {
					comp = done
				}
			case dLoadMiss:
				if c := ln.missFetch(now+1, ln.dfetch, dAddr, ev.dVic()); c > comp {
					comp = c
				}
			case dStoreMissNoAlloc:
				if done := ln.storeThrough(now, now+2, dAddr); done > comp {
					comp = done
				}
			case dStoreMissAlloc:
				c := ln.missFetch(now+1, ln.dfetch, dAddr, ev.dVic()) + 1
				if wt {
					c = ln.storeThrough(now, c, dAddr)
				}
				if c > comp {
					comp = c
				}
			}
			ln.now = comp
		}
	}
	return nil
}

// finish closes the lane after the last event: the trailing gap, the
// checker's final checks and the Result. The Result's CycleNs is left
// zero: nothing here knows the cycle time.
func (p *Profile) finish(ln *lane) (system.Result, error) {
	now := ln.now + int64(p.tailGap) + int64(p.tailGapStoreHits)
	if err := ln.chk.Finish(nil); err != nil {
		return system.Result{}, err
	}

	total := p.total
	total.Cycles = now
	total.BufFullStallCycles = ln.buf.FullStallCycles
	total.BufMatchEvents = ln.buf.MatchEvents
	total.MemReads = ln.unit.Reads
	total.MemWrites = ln.unit.Writes
	total.MemWaitCycles = ln.unit.WaitCycles
	total.MemBusyCycles = ln.unit.BusyCycles

	warm := p.warmSnap
	if ln.warmSeen {
		warm.Cycles = ln.warm.Cycles
		warm.BufFullStallCycles = ln.warm.BufFullStallCycles
		warm.BufMatchEvents = ln.warm.BufMatchEvents
		warm.MemReads = ln.warm.MemReads
		warm.MemWrites = ln.warm.MemWrites
		warm.MemWaitCycles = ln.warm.MemWaitCycles
		warm.MemBusyCycles = ln.warm.MemBusyCycles
	}
	return system.Result{Total: total, Warm: total.Sub(warm)}, nil
}
