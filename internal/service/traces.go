package service

import (
	"context"
	"sync"

	"repro/internal/trace"
	"repro/internal/workload"
)

// traceKey names one deterministic workload trace: a catalog workload at a
// scale. Every cell of a job with the same key replays the same trace.
type traceKey struct {
	workload string
	scale    float64
}

func (c CellSpec) traceKey() traceKey { return traceKey{c.Workload, c.Scale} }

// traceEntry is a single-flight slot in a traceSet.
type traceEntry struct {
	done chan struct{} // closed when the generating cell returns
	tr   *trace.Trace
	err  error
	ok   bool // generation returned, with a trace or an error; false after a panic
}

// traceSet is one job's single-flight trace store. Trace generation does
// not depend on the cache configuration, so a job synthesizes each
// (workload, scale) trace once and every cell of the job replays the same
// read-only *trace.Trace: the first cell that needs a key generates it,
// and every other cell, on any runner worker, waits for it. A generation
// error is kept and returned to every cell that asks for the key; a
// panicking generation is not kept (the slot is dropped and the next cell
// generates afresh), and a cell cancelled while waiting leaves the slot to
// the others.
//
// The set lives no longer than its job. Within the job it also releases a
// trace once every cell that needs it has finished (see release): cells
// run workload by workload, so a job holds about as many traces as it has
// cell workers, not one per workload in the request.
type traceSet struct {
	generate func(traceKey) (*trace.Trace, error)

	mu      sync.Mutex
	entries map[traceKey]*traceEntry
	pending map[traceKey]int // cells of each key not yet finished
}

// newTraceSet returns an empty set for the given cells; release counts
// down against them. With no cells, nothing is ever released.
func newTraceSet(cells []CellSpec) *traceSet {
	s := &traceSet{
		generate: generateTrace,
		entries:  make(map[traceKey]*traceEntry),
		pending:  make(map[traceKey]int),
	}
	for _, c := range cells {
		s.pending[c.traceKey()]++
	}
	return s
}

// generateTrace synthesizes a catalog workload's trace.
func generateTrace(k traceKey) (*trace.Trace, error) {
	wl, err := workload.ByName(k.workload)
	if err != nil {
		return nil, err
	}
	return wl.Generate(k.scale)
}

// get returns the trace for k, generating it if no cell has yet. The
// returned trace is shared: callers must not modify it.
func (s *traceSet) get(ctx context.Context, k traceKey) (*trace.Trace, error) {
	for {
		s.mu.Lock()
		e, found := s.entries[k]
		if !found {
			e = &traceEntry{done: make(chan struct{})}
			s.entries[k] = e
		}
		s.mu.Unlock()
		if !found {
			return s.fill(k, e)
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.ok {
			return e.tr, e.err
		}
		// The generating cell panicked; take its place.
	}
}

// fill generates a slot's trace and publishes it, dropping the slot
// instead when generation panics.
func (s *traceSet) fill(k traceKey, e *traceEntry) (*trace.Trace, error) {
	defer func() {
		if !e.ok {
			s.mu.Lock()
			if s.entries[k] == e {
				delete(s.entries, k)
			}
			s.mu.Unlock()
		}
		close(e.done)
	}()
	e.tr, e.err = s.generate(k)
	e.ok = true
	return e.tr, e.err
}

// release records that one of the set's cells has finished for good (no
// attempt of it will ask for its trace again). When the last cell of a key
// finishes, the set drops that trace.
func (s *traceSet) release(c CellSpec) {
	k := c.traceKey()
	s.mu.Lock()
	defer s.mu.Unlock()
	n, tracked := s.pending[k]
	if !tracked {
		return
	}
	if n > 1 {
		s.pending[k] = n - 1
		return
	}
	delete(s.pending, k)
	delete(s.entries, k)
}
