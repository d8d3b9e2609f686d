package system

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/explain"
	"repro/internal/mem"
	"repro/internal/simtrace"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/writebuf"
)

// System is the single-phase reference simulator. Construct one per
// configuration with New; each Run starts from cold caches and an idle
// memory. Not safe for concurrent use.
type System struct {
	cfg    Config
	timing mem.Timing

	icache cache.Interface // the L1 stacks (see NewL1); one cache when unified
	dcache cache.Interface
	chk    *check.Checker // nil unless cfg.SelfCheck is set
	unit   *mem.Unit
	levels []*cacheLevel // L2, L3, … ordered from nearest to L1
	down   Downstream
	l1buf  *writebuf.Buffer

	// Per-side busy times: a side occupied by an in-flight fill cannot
	// accept the next reference earlier (relevant under early-continue
	// policies; under whole-block fetch they never exceed `now`).
	iBusy, dBusy int64

	live Counters
	hist *stats.Hist // couplet service-time histogram, when enabled

	// rec is the in-run instrumentation recorder, nil unless cfg.Trace
	// is set; svc is its per-miss service-cycle scratch (one slot per
	// lower level plus one for the memory unit).
	rec *simtrace.Recorder
	svc []int64

	// exp is the explainability recorder, nil unless cfg.Explain arms it.
	exp *explain.Recorder
}

// New constructs a simulator for the configuration.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tm, err := cfg.Mem.Quantize(cfg.CycleNs)
	if err != nil {
		return nil, err
	}
	return &System{cfg: cfg, timing: tm}, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the simulated configuration.
func (s *System) Config() Config { return s.cfg }

// reset builds fresh cold state for a run. The L1 pair carries the armed
// instruments (NewL1); in selfcheck mode the write buffer is audited
// against a naive FIFO model too, while the lower levels run unshadowed
// (the oracle models L1 only).
func (s *System) reset(traceName string) error {
	s.exp = explain.Attach(s.cfg.Explain)
	l1, err := NewL1(s.cfg.ICache, s.cfg.DCache, s.cfg.Unified, traceName, s.cfg.SelfCheck, s.exp)
	if err != nil {
		return err
	}
	s.chk = l1.Chk
	s.icache, s.dcache = l1.I.Route(), l1.D.Route()
	s.unit = mem.NewUnit(s.timing)
	var next Downstream = &memDown{unit: s.unit}
	cfgs := s.cfg.effectiveLevels()
	s.levels = make([]*cacheLevel, len(cfgs))
	for i := len(cfgs) - 1; i >= 0; i-- {
		lvl, err := newLevel(&cfgs[i], next)
		if err != nil {
			return err
		}
		s.levels[i] = lvl
		next = lvl
	}
	s.down = next
	if s.l1buf, err = writebuf.New(s.cfg.WriteBufDepth, s.down); err != nil {
		return err
	}
	s.chk.AuditBuffer("l1buf", s.l1buf, s.cfg.WriteBufDepth)
	s.iBusy, s.dBusy = 0, 0
	s.live = Counters{}
	if s.cfg.CollectLatencies {
		s.hist = &stats.Hist{}
	} else {
		s.hist = nil
	}
	s.rec, s.svc = simtrace.Attach(s.cfg.Trace), nil
	if s.rec != nil {
		s.svc = make([]int64, len(s.levels)+1)
	}
	s.chk.AddConservation("attrib-conservation", s.rec)
	return nil
}

// Explainer returns the explainability recorder of the most recent Run,
// or nil unless Config.Explain was set.
func (s *System) Explainer() *explain.Recorder { return s.exp }

// Recorder returns the simtrace recorder of the most recent Run, or nil
// unless Config.Trace was set.
func (s *System) Recorder() *simtrace.Recorder { return s.rec }

// sample snapshots the cumulative interval statistics at the given cycle.
func (s *System) sample(now int64) simtrace.Sample {
	smp := simtrace.Sample{
		Refs:          s.live.Refs,
		Cycles:        now,
		Ifetches:      s.live.Ifetches,
		IfetchMisses:  s.live.IfetchMisses,
		Loads:         s.live.Loads,
		LoadMisses:    s.live.LoadMisses,
		Stores:        s.live.Stores,
		StoreMisses:   s.live.StoreMisses,
		MemBusyCycles: s.unit.BusyCycles,
	}
	c3 := s.exp.Total3C()
	smp.Compulsory = c3.Compulsory
	smp.Capacity = c3.Capacity
	smp.Conflict = c3.Conflict
	return smp
}

// CoupletLatencies returns the couplet service-time histogram of the most
// recent Run, or nil unless Config.CollectLatencies was set.
func (s *System) CoupletLatencies() *stats.Hist { return s.hist }

// snapshot merges the live counters with the buffer, memory and L2
// statistics at the given cycle.
func (s *System) snapshot(now int64) Counters {
	c := s.live
	c.Cycles = now
	c.BufFullStallCycles = s.l1buf.FullStallCycles
	c.BufMatchEvents = s.l1buf.MatchEvents
	c.MemReads = s.unit.Reads
	c.MemWrites = s.unit.Writes
	c.MemWaitCycles = s.unit.WaitCycles
	c.MemBusyCycles = s.unit.BusyCycles
	if len(s.levels) > 0 {
		first := s.levels[0]
		c.L2Reads = first.reads
		c.L2ReadHits = first.readHits
		c.L2Writes = first.writes
		c.L2WriteHits = first.writeHits
	}
	for _, lvl := range s.levels {
		c.BufFullStallCycles += lvl.buf.FullStallCycles
	}
	return c
}

// LevelStats describes one lower hierarchy level's activity after a Run.
type LevelStats struct {
	// Level is 2 for the cache directly below L1, 3 for the next, …
	Level     int
	Reads     int64
	ReadHits  int64
	Writes    int64
	WriteHits int64
}

// LevelStatsAfterRun returns the per-level statistics of the most recent
// Run, nearest level first. The Counters' L2 fields mirror the first entry.
func (s *System) LevelStatsAfterRun() []LevelStats {
	out := make([]LevelStats, len(s.levels))
	for i, lvl := range s.levels {
		out[i] = LevelStats{
			Level:     i + 2,
			Reads:     lvl.reads,
			ReadHits:  lvl.readHits,
			Writes:    lvl.writes,
			WriteHits: lvl.writeHits,
		}
	}
	return out
}

// Run simulates the trace and returns the total and warm-window results.
func (s *System) Run(t *trace.Trace) (Result, error) {
	if err := t.Validate(); err != nil {
		return Result{}, err
	}
	if err := s.reset(t.Name); err != nil {
		return Result{}, err
	}
	refs := t.Refs
	var now int64
	var warmSnap Counters
	warmTaken := t.WarmStart == 0

	for i := 0; i < len(refs); {
		if s.chk.Diverged() {
			return Result{}, s.chk.Err()
		}
		if !warmTaken && i >= t.WarmStart {
			warmSnap = s.snapshot(now)
			s.rec.MarkWarm()
			s.exp.MarkWarm()
			warmTaken = true
		}
		n := trace.CoupletLen(refs, i)
		s.live.Couplets++
		s.live.Refs += int64(n)
		s.rec.BeginCouplet(now)
		comp := now + 1
		first := refs[i]
		if first.Kind == trace.Ifetch {
			if c := s.readRef(now, s.icache, first, true); c > comp {
				comp = c
			}
			if n == 2 {
				if c := s.dataRef(now, refs[i+1]); c > comp {
					comp = c
				}
			}
		} else {
			if c := s.dataRef(now, first); c > comp {
				comp = c
			}
		}
		if s.hist != nil {
			s.hist.Add(comp - now)
		}
		s.rec.EndCouplet(comp)
		if s.rec.IntervalsOn() {
			s.rec.SampleDepth(s.l1buf.Len())
			if s.rec.WindowDue(s.live.Refs) {
				s.rec.EmitWindow(s.sample(comp))
			}
		}
		now = comp
		i += n
	}
	total := s.snapshot(now)
	if !warmTaken {
		warmSnap = total
		s.rec.MarkWarm() // degenerate warm window: keep attribution consistent
		s.exp.MarkWarm()
	}
	tally := total.SelfCheckTally()
	if err := s.chk.Finish(&tally); err != nil {
		return Result{}, err
	}
	if err := s.rec.Finish(s.sample(now), now); err != nil {
		return Result{}, err
	}
	if err := s.exp.Finish(total.IfetchMisses + total.LoadMisses + total.StoreMisses); err != nil {
		return Result{}, err
	}
	return Result{CycleNs: s.cfg.CycleNs, Total: total, Warm: total.Sub(warmSnap)}, nil
}

// dataRef dispatches a data reference to the D side.
func (s *System) dataRef(now int64, r trace.Ref) int64 {
	switch r.Kind {
	case trace.Load:
		return s.readRef(now, s.dcache, r, false)
	case trace.Store:
		return s.writeRef(now, r)
	}
	panic(fmt.Sprintf("system: non-data reference %v on data side", r.Kind))
}

// missFetch performs the downstream fetch for a miss detected at `start`
// (after the one-cycle L1 access), handling the dirty-victim overlap and
// the write-back enqueue. The fetch unit is the cache's fetch size: the
// whole block for the paper's base system, one sub-block under sub-block
// placement. It returns the cycle the missing reference completes and the
// cycle the side becomes free.
func (s *System) missFetch(start int64, c cache.Interface, addr uint64, res cache.Result) (complete, busy int64) {
	fw := c.Config().EffectiveFetchWords()
	fetchAddr := addr &^ uint64(fw-1)
	s.l1buf.Drain(start)
	matched := s.l1buf.FlushMatching(start, fetchAddr, fw)
	victimOut := res.Victim.Words
	if s.rec != nil {
		for i, lvl := range s.levels {
			s.svc[i] = lvl.serviceCycles
		}
		s.svc[len(s.levels)] = s.unit.ReadServiceCycles
	}
	mw0, mr0 := s.unit.ReadWaitCycles, s.unit.ReadRecoveryWaitCycles
	dataAt, fillStart := s.down.ReadBlock(start, fetchAddr, fw, victimOut)
	if s.rec != nil {
		s.rec.NoteFetch(s.unit.ReadWaitCycles-mw0, s.unit.ReadRecoveryWaitCycles-mr0, matched)
		// Peel each level's own service out of the nested deltas: level
		// i's fetch time minus the time spent below it.
		below := s.unit.ReadServiceCycles - s.svc[len(s.levels)]
		for i := len(s.levels) - 1; i >= 0; i-- {
			d := s.levels[i].serviceCycles - s.svc[i]
			s.rec.NoteLevelService(i, d-below)
			below = d
		}
	}
	complete = dataAt
	switch s.cfg.Fetch {
	case EarlyContinue:
		off := int(addr & uint64(fw-1))
		if w := s.wordArrival(fillStart, off+1); w < complete {
			complete = w
		}
	case LoadForward:
		if w := s.wordArrival(fillStart, 1); w < complete {
			complete = w
		}
	}
	busy = dataAt
	if victimOut > 0 {
		rel := s.enqueueTracked(dataAt, res.Victim.BlockAddr, victimOut, dataAt)
		if rel > complete {
			complete = rel
		}
		if rel > busy {
			busy = rel
		}
		s.live.WritebackBlocks++
		s.live.WritebackWords += int64(victimOut)
		s.live.WritebackDirtyWords += int64(res.Victim.DirtyWords)
	}
	s.live.ReadWordsFetched += int64(fw)
	return complete, busy
}

// enqueueTracked wraps the L1 write buffer's Enqueue, feeding any
// full-buffer stall cycles to the attribution recorder.
func (s *System) enqueueTracked(now int64, addr uint64, words int, ready int64) int64 {
	if s.rec == nil { // the stall delta costs loads an untraced run skips
		return s.l1buf.Enqueue(now, addr, words, ready)
	}
	f0 := s.l1buf.FullStallCycles
	rel := s.l1buf.Enqueue(now, addr, words, ready)
	s.rec.NoteBufFull(s.l1buf.FullStallCycles - f0)
	return rel
}

// wordArrival estimates when the n-th word of a fill arrives, using the
// downstream transfer rate (memory backplane, or the one-word inter-level
// path when a lower cache level is present).
func (s *System) wordArrival(fillStart int64, words int) int64 {
	if len(s.levels) > 0 {
		return fillStart + int64(words)
	}
	return fillStart + int64(s.timing.TransferCycles(words))
}

// readRef services a load or instruction fetch.
func (s *System) readRef(now int64, c cache.Interface, r trace.Ref, isIfetch bool) int64 {
	if isIfetch {
		s.live.Ifetches++
		if s.iBusy > now {
			now = s.iBusy
		}
	} else {
		s.live.Loads++
		if s.dBusy > now {
			now = s.dBusy
		}
	}
	addr := r.Extended()
	res := c.Read(addr)
	kind := simtrace.Load
	if isIfetch {
		kind = simtrace.Ifetch
	}
	if res.Hit {
		s.rec.NoteRef(kind, now+1)
		return now + 1
	}
	if isIfetch {
		s.live.IfetchMisses++
	} else {
		s.live.LoadMisses++
	}
	complete, busy := s.missFetch(now+1, c, addr, res)
	s.rec.NoteRef(kind, complete)
	if isIfetch {
		s.iBusy = busy
	} else {
		s.dBusy = busy
	}
	return complete
}

// writeRef services a store: one cycle to access the tags, one to write the
// data. Write-back hits dirty the word; misses without write-allocate send
// the word toward memory through the write buffer; write-through sends
// every store through.
func (s *System) writeRef(now int64, r trace.Ref) int64 {
	s.live.Stores++
	if s.dBusy > now {
		now = s.dBusy
	}
	addr := r.Extended()
	res := s.dcache.Write(addr)
	wt := s.cfg.DCache.WritePolicy == cache.WriteThrough

	if res.Hit {
		s.live.StoreHits++
		done := now + 2
		if wt {
			s.l1buf.Drain(now)
			s.live.StoreThroughWords++
			if rel := s.enqueueTracked(done, addr, 1, done); rel > done {
				done = rel
			}
		}
		if done > s.dBusy {
			s.dBusy = done
		}
		s.rec.NoteRef(simtrace.Store, done)
		return done
	}

	s.live.StoreMisses++
	if !res.Allocated {
		// No fetch on write miss: the word goes straight toward
		// memory through the write buffer.
		done := now + 2
		s.l1buf.Drain(now)
		s.live.StoreThroughWords++
		if rel := s.enqueueTracked(done, addr, 1, done); rel > done {
			done = rel
		}
		if done > s.dBusy {
			s.dBusy = done
		}
		s.rec.NoteRef(simtrace.Store, done)
		return done
	}

	// Write-allocate: fetch the block (the cache already installed and
	// dirtied the line), then spend the data-write cycle.
	complete, busy := s.missFetch(now+1, s.dcache, addr, res)
	complete++
	if wt {
		s.l1buf.Drain(now)
		s.live.StoreThroughWords++
		if rel := s.enqueueTracked(complete, addr, 1, complete); rel > complete {
			complete = rel
		}
	}
	if complete > busy {
		busy = complete
	}
	s.dBusy = busy
	s.rec.NoteRef(simtrace.Store, complete)
	return complete
}

// Simulate is a convenience wrapper: build a system for cfg, run the trace,
// return the result.
func Simulate(cfg Config, t *trace.Trace) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Run(t)
}
