package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB (Linux reports
// ru_maxrss in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// warmUp keeps every worker's CPU busy for a while before anything is
// timed. On the shared 2-vCPU machine the benchmark was built on, a process
// that starts after the CPUs idled runs at half speed for about a second,
// as if one vCPU were still parked; timing through that would make the
// first second of every run an outlier.
func warmUp(workers int, d time.Duration) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(88172645463325252)
			for end := time.Now().Add(d); time.Now().Before(end); {
				for i := 0; i < 100_000; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
			}
			sink.Add(int64(x))
		}()
	}
	wg.Wait()
}

// sink keeps the results of timed loops observable so the compiler cannot
// drop the calls that produce them.
var sink atomic.Int64

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// digest hashes the JSON encoding of v. JSON round-trips float64 exactly
// (shortest-form encoding), so equal digests mean bit-identical results.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12]), nil
}

// timed runs a workload's timed phase: run performs every operation and
// returns their latencies. The phase records the whole phase's wall and
// CPU time and the latency quantiles over every operation. It returns the
// wall time.
func (p *phase) timed(run func() []time.Duration) time.Duration {
	cpu0, t0 := cpuTime(), time.Now()
	ds := run()
	wall := time.Since(t0)
	p.wallS, p.cpuS = wall.Seconds(), (cpuTime() - cpu0).Seconds()
	lat := msAll(ds)
	p.opP50, p.opP90 = quantile(lat, 0.5), quantile(lat, 0.9)
	return wall
}

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call.
type span struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"dur_ms"`
}

// spans collects spans in memory; the benchmark writes them out when the
// run ends. A nil *spans records nothing, so untraced runs pay one nil
// check per call.
type spans struct {
	t0   time.Time
	mu   sync.Mutex
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// add records a finished span.
func (s *spans) add(name string, start time.Time, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{Name: name, StartMs: ms(start.Sub(s.t0)), DurMs: ms(d)})
}

// write stores the spans as NDJSON.
func (s *spans) write(path string) error {
	if s == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	s.mu.Lock()
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			s.mu.Unlock()
			f.Close()
			return err
		}
	}
	s.mu.Unlock()
	return f.Close()
}
