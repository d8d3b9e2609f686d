package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/writebuf"
)

// probeTrace is the Table 1 trace the per-access probes run over.
const probeTrace = "mu3"

// probeReps is how many times each probe repeats; it reports the median.
const probeReps = 5

// timeMedian runs fn probeReps times and returns the median duration.
func timeMedian(fn func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < probeReps; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t)))
	}
	return time.Duration(median(ds)), nil
}

// probeLayers times direct calls into each simulator layer's public
// functions and adds the results to l.
func probeLayers(o runOpts, l map[string]float64) error {
	// workload: the eight Table 1 traces, as every workload's set-up makes them.
	var refs int
	gen, err := timeMedian(func() error {
		ts, err := workload.GenerateAll(o.scale)
		refs = 0
		for _, t := range ts {
			refs += t.Len()
		}
		return err
	})
	if err != nil {
		return err
	}
	l["workload.generate_ms"] = ms(gen)
	l["workload.gen_ns_per_ref"] = float64(gen) / float64(refs)

	spec, err := workload.ByName(probeTrace)
	if err != nil {
		return err
	}
	tr, err := spec.Generate(o.scale)
	if err != nil {
		return err
	}
	n := float64(tr.Len())

	// cache: Read/Write over the trace at the base organization.
	base := system.DefaultConfig().DCache
	base.Seed = 1988
	geoms := map[string]cache.Config{"dm": base}
	for name, assoc := range map[string]int{"2way": 2, "8way": 8} {
		c := base
		c.Assoc = assoc
		geoms[name] = c
	}
	sub := base
	sub.BlockWords, sub.FetchWords = 16, 4
	geoms["subblock"] = sub
	for name, cfg := range geoms {
		d, err := timeMedian(func() error { return accessAll(cfg, tr) })
		if err != nil {
			return err
		}
		l["cache.access_ns."+name] = float64(d) / n
	}

	// engine: the behavioural pass per geometry, then replay at the base timing.
	var dm *engine.Profile
	for _, name := range []string{"dm", "2way", "8way"} {
		org := engine.Org{ICache: geoms[name], DCache: geoms[name]}
		var p *engine.Profile
		d, err := timeMedian(func() (err error) {
			p, err = engine.BuildProfile(org, tr)
			return err
		})
		if err != nil {
			return err
		}
		l["engine.build_ns_per_ref."+name] = float64(d) / n
		l["engine.events_per_kref."+name] = 1000 * float64(p.Events()) / n
		if name == "dm" {
			dm = p
		}
	}
	l["engine.profile_kb"] = profileKB(engine.Org{ICache: base, DCache: base}, tr)
	tm := engine.Timing{CycleNs: 40, Mem: mem.DefaultConfig(), WriteBufDepth: 4}
	d, err := timeMedian(func() error {
		res, err := dm.Replay(tm)
		sink.Add(res.Warm.Cycles)
		return err
	})
	if err != nil {
		return err
	}
	l["engine.replay_ns_per_event"] = float64(d) / float64(dm.Events())

	// mem and writebuf.
	const memOps = 200_000
	d, _ = timeMedian(func() error {
		cfg := mem.DefaultConfig()
		var acc int64
		for i := 0; i < memOps; i++ {
			t, err := cfg.Quantize(20 + i%61)
			if err != nil {
				return err
			}
			acc += int64(t.RecoveryCycles)
		}
		sink.Add(acc)
		return nil
	})
	l["mem.quantize_ns"] = float64(d) / memOps
	const wbOps = 1_000_000
	d, err = timeMedian(func() error { return writeBufferOps(wbOps) })
	if err != nil {
		return err
	}
	l["writebuf.op_ns"] = float64(d) / wbOps

	// system: the single-phase simulator, without and with an L2.
	sysBase := system.DefaultConfig()
	multi := sysBase
	multi.L2 = &system.L2Config{
		Cache: cache.Config{SizeWords: 512 * 1024 / 4, BlockWords: 16, Assoc: 1,
			Replacement: cache.Random, WritePolicy: cache.WriteBack, WriteAllocate: true, Seed: 1988},
		AccessCycles: 3, WriteBufDepth: 4,
	}
	for name, cfg := range map[string]system.Config{"base": sysBase, "multilevel": multi} {
		d, err := timeMedian(func() error {
			res, err := system.Simulate(cfg, tr)
			sink.Add(res.Warm.Cycles)
			return err
		})
		if err != nil {
			return err
		}
		l["system.ns_per_ref."+name] = float64(d) / n
	}

	// runner: per-cell overhead over no-op cells.
	const noopCells = 20_000
	cells := make([]runner.Cell[int], noopCells)
	for i := range cells {
		cells[i] = runner.Cell[int]{Run: func(context.Context) (int, error) { return 1, nil }}
	}
	d, _ = timeMedian(func() error {
		_, err := runner.Values(runner.Run(context.Background(), cells, runner.Options{Workers: o.workers}))
		return err
	})
	l["runner.noop_cell_us"] = float64(d) / float64(time.Microsecond) / noopCells

	ack, err := journalAck(o)
	if err != nil {
		return err
	}
	l["durable.journal_ack_us"] = ack
	return nil
}

// accessAll runs every reference of the trace through split I and D caches.
func accessAll(cfg cache.Config, tr *trace.Trace) error {
	ic, err := cache.New(cfg)
	if err != nil {
		return err
	}
	dc, err := cache.New(cfg)
	if err != nil {
		return err
	}
	var hits int64
	for _, r := range tr.Refs {
		var res cache.Result
		switch r.Kind {
		case trace.Ifetch:
			res = ic.Read(r.Extended())
		case trace.Load:
			res = dc.Read(r.Extended())
		default:
			res = dc.Write(r.Extended())
		}
		if res.Hit {
			hits++
		}
	}
	sink.Add(hits)
	return nil
}

// profileKB is the heap a behavioural profile keeps alive.
func profileKB(org engine.Org, tr *trace.Trace) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := engine.BuildProfile(org, tr)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0
	}
	runtime.KeepAlive(p)
	return float64(after.HeapAlloc-before.HeapAlloc) / 1024
}

// memSink adapts a memory unit to the write buffer's downstream interface.
type memSink struct{ u *mem.Unit }

func (m memSink) StartWrite(now int64, _ uint64, words int) int64 { return m.u.StartWrite(now, words) }
func (m memSink) NextFree() int64                                 { return m.u.NextFree() }

// writeBufferOps drives a four-entry buffer into the base memory with a
// fixed mix of enqueues (three in four) and read matches.
func writeBufferOps(n int) error {
	t, err := mem.DefaultConfig().Quantize(40)
	if err != nil {
		return err
	}
	b, err := writebuf.New(4, memSink{mem.NewUnit(t)})
	if err != nil {
		return err
	}
	var now int64
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		now += 1 + int64(x%8)
		addr := (x >> 8) % 4096 * 4
		if x%4 == 0 {
			b.FlushMatching(now, addr, 4)
		} else {
			now = b.Enqueue(now, addr, 1, now)
		}
	}
	sink.Add(b.Drained)
	return nil
}

// journalAck is the median latency in µs of Journal.Submit on a scratch
// journal: a framed append, fsync and read-back per job.
func journalAck(o runOpts) (float64, error) {
	dir, err := os.MkdirTemp(o.tmp, "journal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	j, err := service.OpenJournal(filepath.Join(dir, service.JournalName), nil)
	if err != nil {
		return 0, err
	}
	req := service.GridRequest{Workloads: []string{probeTrace}, Scale: gridScale, SizesKB: []int{4, 8, 16, 32}}
	var lat []float64
	for i := 0; i < 200; i++ {
		t := time.Now()
		if err := j.Submit(fmt.Sprintf("job-%d", i), "", "", req); err != nil {
			j.Close()
			return 0, err
		}
		lat = append(lat, float64(time.Since(t))/float64(time.Microsecond))
	}
	return median(lat), j.Close()
}
