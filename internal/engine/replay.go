package engine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/mem"
	"repro/internal/simtrace"
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

// replayer holds the timing-phase state while walking an event stream.
type replayer struct {
	unit *mem.Unit
	buf  *writebuf.Buffer
	rec  *simtrace.Recorder // nil unless instrumentation is armed
}

// fetchUnit is one cache's fetch size and its transfer time at the
// replay's timing, computed once per replay rather than on every miss.
type fetchUnit struct {
	words, cycles int
}

// missFetch mirrors system.(*System).missFetch for the whole-block
// completion policy with main memory downstream. f is the cache's fetch
// unit; wbWords is the victim's write-back size (0 for a clean miss).
func (r *replayer) missFetch(start int64, f fetchUnit, addr uint64, wbWords int, vicAddr uint64) int64 {
	fetchAddr := addr &^ uint64(f.words-1)
	r.buf.Drain(start)
	matched := r.buf.FlushMatching(start, fetchAddr, f.words)
	mw0, mr0 := r.unit.ReadWaitCycles, r.unit.ReadRecoveryWaitCycles
	dataAt, fillStart := r.unit.StartFill(start, f.cycles, wbWords)
	if r.rec != nil { // the wait deltas cost loads an untraced replay skips
		r.rec.NoteFetch(r.unit.ReadWaitCycles-mw0, r.unit.ReadRecoveryWaitCycles-mr0, matched)
		r.rec.Event(simtrace.EvFill, fillStart, dataAt, fetchAddr, f.words)
	}
	complete := dataAt
	if wbWords > 0 {
		rel := r.enqueueTracked(dataAt, vicAddr, wbWords, dataAt)
		r.rec.Event(simtrace.EvWriteback, dataAt, dataAt, vicAddr, wbWords)
		if rel > complete {
			complete = rel
		}
	}
	return complete
}

// storeThrough mirrors the system's write-buffer enqueue for a store that
// passes toward memory: drain at the access time, enqueue one word at the
// completion time, stall if the buffer is full.
func (r *replayer) storeThrough(now, done int64, addr uint64) int64 {
	r.buf.Drain(now)
	if rel := r.enqueueTracked(done, addr, 1, done); rel > done {
		done = rel
	}
	return done
}

// enqueueTracked wraps the write buffer's Enqueue, feeding any full-buffer
// stall cycles to the attribution recorder.
func (r *replayer) enqueueTracked(now int64, addr uint64, words int, ready int64) int64 {
	if r.rec == nil { // the stall delta costs loads an untraced replay skips
		return r.buf.Enqueue(now, addr, words, ready)
	}
	f0 := r.buf.FullStallCycles
	rel := r.buf.Enqueue(now, addr, words, ready)
	r.rec.NoteBufFull(r.buf.FullStallCycles - f0)
	return rel
}

// Replay runs the timing phase over the profile and returns the same Result
// the system simulator would produce for the equivalent configuration
// (whole-block fetch, no L2). The cost is proportional to the number of
// events, not the number of references.
func (p *Profile) Replay(t Timing) (system.Result, error) {
	return p.ReplayTraced(t, nil, nil)
}

// ReplayTraced is Replay with the instruments attached. When opts is
// non-nil, the write buffer is audited against the check package's naive
// FIFO model: every enqueue and start is verified for FIFO order and depth
// bounds, and the buffer's structural invariants run at the end of the
// replay; the first violation aborts the replay with a typed
// *check.Divergence error. When rec arms an instrument, cycle attribution
// and the timeline event ring work exactly as in the system simulator, and
// with a checker too the attribution's conservation joins the invariant
// battery. Interval windows are NOT supported here — the event stream
// compresses hit-only couplet runs into gaps, so there is no per-couplet
// point at which to sample write-buffer depth; use the system simulator
// for interval series. A nil opts and a nil or disarmed rec are exactly
// Replay.
//
// The replay itself sees only the timing's cycle-domain form (see
// CycleTiming); the cycle time is stamped on the Result afterwards.
func (p *Profile) ReplayTraced(t Timing, opts *check.Options, rec *simtrace.Recorder) (system.Result, error) {
	ct, err := t.CycleDomain()
	if err != nil {
		return system.Result{}, err
	}
	var chk *check.Checker
	if opts != nil {
		chk = check.New(opts)
		chk.SetContext(fmt.Sprintf("trace=%s dcache=%v cycle=%dns", p.TraceName, p.Org.DCache, t.CycleNs))
	}
	res, err := p.replay(ct, chk, rec)
	if err != nil {
		return system.Result{}, err
	}
	res.CycleNs = t.CycleNs
	return res, nil
}

// replay runs the timing phase at a cycle-domain timing. The Result's
// CycleNs is left zero: nothing here knows the cycle time.
func (p *Profile) replay(ct CycleTiming, chk *check.Checker, rec *simtrace.Recorder) (system.Result, error) {
	tm := ct.Mem
	if !rec.On() {
		rec = nil // a disarmed recorder attaches nothing, as in Attach
	}
	r := &replayer{unit: mem.NewUnit(tm), rec: rec}
	var err error
	if r.buf, err = writebuf.New(ct.WriteBufDepth, &memSink{unit: r.unit}); err != nil {
		return system.Result{}, err
	}
	if rec.EventsOn() {
		r.buf.SetTracer(rec)
	}
	chk.AddConservation("attrib-conservation", rec)
	chk.AuditBuffer("l1buf", r.buf, ct.WriteBufDepth)

	ifw := p.Org.ICache.EffectiveFetchWords()
	if p.Org.Unified {
		ifw = p.Org.DCache.EffectiveFetchWords()
	}
	dfw := p.Org.DCache.EffectiveFetchWords()
	ifetch := fetchUnit{ifw, tm.TransferCycles(ifw)}
	dfetch := fetchUnit{dfw, tm.TransferCycles(dfw)}
	wt := p.Org.DCache.WritePolicy == cache.WriteThrough

	var now int64
	var warmTiming system.Counters
	warmSeen := false

	for k := range p.events {
		ev := &p.events[k] // read in place: no copy per event
		if chk.Diverged() {
			return system.Result{}, chk.Err()
		}
		now += int64(ev.gap) + int64(ev.gapStoreHits)
		// Gap couplets cost one base cycle each plus one store cycle per
		// contained store hit — attributed in bulk.
		rec.AddGap(int64(ev.gap), int64(ev.gapStoreHits), now)
		flags := ev.flags()
		if flags&flagMarker != 0 {
			rec.MarkWarm()
			warmTiming = system.Counters{
				Cycles:             now,
				BufFullStallCycles: r.buf.FullStallCycles,
				BufMatchEvents:     r.buf.MatchEvents,
				MemReads:           r.unit.Reads,
				MemWrites:          r.unit.Writes,
				MemWaitCycles:      r.unit.WaitCycles,
				MemBusyCycles:      r.unit.BusyCycles,
			}
			warmSeen = true
			continue
		}
		rec.BeginCouplet(now)
		comp := now + 1
		if flags&flagHasI != 0 {
			if flags&flagIMiss != 0 {
				c := r.missFetch(now+1, ifetch, ev.iAddr(), ev.iVicW(), ev.iVic)
				rec.NoteMiss(simtrace.Ifetch, now, c, ev.iAddr())
				if c > comp {
					comp = c
				}
			} else {
				rec.NoteRef(simtrace.Ifetch, now+1)
			}
		}
		switch ev.dOp() {
		case dNone:
			// no data reference in this couplet
		case dLoadHit:
			// one cycle, already covered by comp
			rec.NoteRef(simtrace.Load, now+1)
		case dStoreHit:
			done := now + 2
			if wt {
				done = r.storeThrough(now, done, ev.dAddr())
			}
			rec.NoteRef(simtrace.Store, done)
			if done > comp {
				comp = done
			}
		case dLoadMiss:
			c := r.missFetch(now+1, dfetch, ev.dAddr(), ev.dVicW(), ev.dVic)
			rec.NoteMiss(simtrace.Load, now, c, ev.dAddr())
			if c > comp {
				comp = c
			}
		case dStoreMissNoAlloc:
			done := r.storeThrough(now, now+2, ev.dAddr())
			rec.NoteRef(simtrace.Store, done)
			if done > comp {
				comp = done
			}
		case dStoreMissAlloc:
			c := r.missFetch(now+1, dfetch, ev.dAddr(), ev.dVicW(), ev.dVic)
			c++
			if wt {
				c = r.storeThrough(now, c, ev.dAddr())
			}
			rec.NoteMiss(simtrace.Store, now, c, ev.dAddr())
			if c > comp {
				comp = c
			}
		}
		rec.EndCouplet(comp)
		now = comp
	}
	now += int64(p.tailGap) + int64(p.tailGapStoreHits)
	rec.AddGap(int64(p.tailGap), int64(p.tailGapStoreHits), now)
	if err := chk.Finish(nil); err != nil {
		return system.Result{}, err
	}
	if err := rec.Finish(simtrace.Sample{Refs: p.total.Refs, Cycles: now}, now); err != nil {
		return system.Result{}, err
	}

	total := p.total
	total.Cycles = now
	total.BufFullStallCycles = r.buf.FullStallCycles
	total.BufMatchEvents = r.buf.MatchEvents
	total.MemReads = r.unit.Reads
	total.MemWrites = r.unit.Writes
	total.MemWaitCycles = r.unit.WaitCycles
	total.MemBusyCycles = r.unit.BusyCycles

	warm := p.warmSnap
	if warmSeen {
		warm.Cycles = warmTiming.Cycles
		warm.BufFullStallCycles = warmTiming.BufFullStallCycles
		warm.BufMatchEvents = warmTiming.BufMatchEvents
		warm.MemReads = warmTiming.MemReads
		warm.MemWrites = warmTiming.MemWrites
		warm.MemWaitCycles = warmTiming.MemWaitCycles
		warm.MemBusyCycles = warmTiming.MemBusyCycles
	}
	return system.Result{Total: total, Warm: total.Sub(warm)}, nil
}
