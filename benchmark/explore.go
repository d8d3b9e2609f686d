package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	cachetime "repro"
)

// The explore-warm design plane: the Section 3 size × cycle-time plane
// crossed with the Section 5 latency × transfer-rate axes, at the base
// organization (direct mapped, 4-word blocks).
var (
	exploreSizesKB   = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024}
	exploreCyclesNs  = []int{20, 28, 36, 44, 52, 60, 68, 76}
	exploreLatencies = []int{100, 180, 260, 340, 420}
	exploreRates     = []cachetime.MemRate{cachetime.Rate4PerCycle, cachetime.Rate2PerCycle,
		cachetime.Rate1PerCycle, cachetime.Rate1Per2, cachetime.Rate1Per4}
)

// explorePoints lists the plane in canonical order.
func explorePoints() []cachetime.DesignPoint {
	var pts []cachetime.DesignPoint
	for _, kb := range exploreSizesKB {
		for _, cy := range exploreCyclesNs {
			for _, la := range exploreLatencies {
				for _, tr := range exploreRates {
					pts = append(pts, cachetime.DesignPoint{TotalKB: kb, CycleNs: cy,
						Mem: cachetime.UniformMemory(la, tr)})
				}
			}
		}
	}
	return pts
}

// newExplorer is explore-warm's set-up: generate the traces, bind a fresh
// Explorer, and build the profiles of every organization the session
// queries, one organization per worker at a time.
func newExplorer(o runOpts) (*cachetime.Explorer, error) {
	traces, err := cachetime.GenerateWorkloads(o.scale)
	if err != nil {
		return nil, err
	}
	ex, err := cachetime.NewExplorer(traces)
	if err != nil {
		return nil, err
	}
	return ex, parallel(o.workers, len(exploreSizesKB), func(i int) error {
		_, err := ex.Evaluate(cachetime.DesignPoint{TotalKB: exploreSizesKB[i]})
		return err
	})
}

// runExplore is the explore-warm workload: a closed loop of o.workers
// callers, each taking the next point of a seeded shuffle of the plane and
// calling Evaluate. The profiles are all built in set-up, so the timed
// phase is timing replay, memory quantization and write-buffer modelling.
func runExplore(o runOpts, traced bool) (*phase, error) {
	ph := &phase{}
	var ex *cachetime.Explorer
	for i := 0; i < setupReps; i++ {
		ex = nil // let the previous repetition's profiles be collected
		t := time.Now()
		e, err := newExplorer(o)
		if err != nil {
			return nil, err
		}
		ph.setupS = append(ph.setupS, time.Since(t).Seconds())
		ex = e
	}

	pts := explorePoints()
	rng := rand.New(rand.NewSource(o.seed))
	var order []int
	for u := 0; u < o.units(); u++ {
		order = append(order, rng.Perm(len(pts))...)
	}
	if traced {
		ph.sp = newSpans()
	}
	evals := make([]cachetime.Evaluation, len(order))
	errs := make([]error, len(order))
	lat := make([]time.Duration, len(order))
	wall := ph.timed(func() []time.Duration {
		_ = parallel(o.workers, len(order), func(i int) error {
			ts := time.Now()
			evals[i], errs[i] = ex.Evaluate(pts[order[i]])
			lat[i] = time.Since(ts)
			ph.sp.add("core.evaluate", ts, lat[i])
			return nil
		})
		return lat
	})

	// Correctness: every evaluation of a point agrees, and the evaluations
	// in canonical point order match the pinned digest.
	canon := make([]*cachetime.Evaluation, len(pts))
	ph.attempted = len(order)
	for k, idx := range order {
		switch {
		case errs[k] != nil:
			ph.fail(fmt.Sprintf("point %d: %v", idx, errs[k]))
		case canon[idx] == nil:
			canon[idx] = &evals[k]
			ph.opsDone++
		case *canon[idx] != evals[k]:
			ph.fail(fmt.Sprintf("point %d: evaluations disagree", idx))
		default:
			ph.opsDone++
		}
	}
	ph.opsPerS = float64(ph.opsDone) / ph.wallS
	if dg, err := digest(canon); err != nil {
		ph.check(false, err.Error())
	} else if o.scale == goldenScale {
		ph.check(dg == golden.Explore, fmt.Sprintf("explore digest %s, pinned %s", dg, golden.Explore))
	}

	if traced {
		var busy time.Duration
		for _, d := range lat {
			busy += d
		}
		idle := wall - busy/time.Duration(o.workers)
		ph.unaccountedPct = 100 * idle.Seconds() / wall.Seconds()
	}
	return ph, nil
}

// parallel runs fn(0..n-1) on at most workers goroutines and returns the
// first error.
func parallel(workers, n int, fn func(i int) error) error {
	var (
		next atomic.Int64
		mu   sync.Mutex
		err  error
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if e := fn(i); e != nil {
					mu.Lock()
					if err == nil {
						err = e
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return err
}
