// Package perfobs is the performance observatory, off by default. It
// captures CPU and heap pprof profiles per run with bounded retention,
// samples runtime/metrics around a run's phases (allocations, GC pauses,
// heap goal, scheduler latency), and holds the one noise rule every
// run-to-run comparison applies. The captured files are plain pprof
// profiles: `go tool pprof` reads them, with -top, -tree, -diff_base and
// -raw.
//
// Nothing here runs inside the simulator's inner loop: capture brackets a
// whole run and runtime sampling is scrape-time only. With no -profile flag
// the simulator output is bit-identical to an unprofiled build.
package perfobs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync/atomic"
)

// Profile file names inside a run's capture directory.
const (
	CPUProfileName  = "cpu.pprof"
	HeapProfileName = "heap.pprof"
)

// DefaultKeepRuns bounds capture retention: Stop prunes the capture
// directory down to this many newest run directories.
const DefaultKeepRuns = 16

// DefaultMemProfileRate is the heap sampling rate captures use: one sample
// per ~16 KiB allocated, 32× denser than the runtime default (512 KiB), so
// short simulator runs still produce a usable allocation table. Large
// allocations are always sampled exactly regardless of rate; the rate only
// governs the small-allocation tail.
const DefaultMemProfileRate = 16 << 10

// ErrBusy reports that another capture (or a live /debug/pprof/profile
// download) already owns the process-global CPU profiler.
var ErrBusy = errors.New("perfobs: CPU profiler already in use")

// cpuActive serializes captures in this package; the runtime additionally
// rejects a second StartCPUProfile from anywhere else (e.g. the debug
// server's profile endpoint).
var cpuActive atomic.Bool

// Capture is one in-flight profile capture: CPU profiling runs from Start
// to Stop, and Stop snapshots the allocation profile. One capture owns the
// process-global CPU profiler at a time; a second Start returns ErrBusy.
type Capture struct {
	runDir  string
	baseDir string
	cpuFile *os.File
	prevMem int
	stopped bool
}

// Summary reports what one capture wrote.
type Summary struct {
	// Dir is the run's capture directory.
	Dir string `json:"dir"`
	// CPUPath and HeapPath are the written profile files; CPUBytes and
	// HeapBytes their sizes.
	CPUPath   string `json:"cpu_path"`
	HeapPath  string `json:"heap_path"`
	CPUBytes  int64  `json:"cpu_bytes"`
	HeapBytes int64  `json:"heap_bytes"`
}

// Start begins capturing under dir/runID: CPU profiling starts immediately
// and the heap sampling rate is raised to DefaultMemProfileRate for the
// window, so start the capture before the allocation-heavy work it should
// see. Stop keeps the DefaultKeepRuns newest run directories under dir.
// Returns ErrBusy when another capture holds the CPU profiler.
func Start(dir, runID string) (*Capture, error) {
	if !cpuActive.CompareAndSwap(false, true) {
		return nil, ErrBusy
	}
	c := &Capture{baseDir: dir, runDir: filepath.Join(dir, runID)}
	if err := os.MkdirAll(c.runDir, 0o755); err != nil {
		cpuActive.Store(false)
		return nil, fmt.Errorf("perfobs: %w", err)
	}
	f, err := os.Create(filepath.Join(c.runDir, CPUProfileName))
	if err != nil {
		cpuActive.Store(false)
		return nil, fmt.Errorf("perfobs: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		cpuActive.Store(false)
		// The runtime's error here means something outside this package
		// (the debug server's profile endpoint) holds the profiler.
		return nil, fmt.Errorf("%w: %v", ErrBusy, err)
	}
	c.cpuFile = f
	c.prevMem = runtime.MemProfileRate
	runtime.MemProfileRate = DefaultMemProfileRate
	return c, nil
}

// Stop ends the capture: stops the CPU profile, snapshots the allocation
// profile (after a GC, so the "allocs" view is settled), restores the heap
// sampling rate, prunes old run directories and reports what was written.
// Stop is not idempotent-safe for concurrent use but tolerates a second
// sequential call, which is a no-op.
func (c *Capture) Stop() (Summary, error) {
	if c == nil || c.stopped {
		return Summary{}, nil
	}
	c.stopped = true
	pprof.StopCPUProfile()
	cerr := c.cpuFile.Close()
	runtime.MemProfileRate = c.prevMem
	cpuActive.Store(false)

	sum := Summary{
		Dir:      c.runDir,
		CPUPath:  filepath.Join(c.runDir, CPUProfileName),
		HeapPath: filepath.Join(c.runDir, HeapProfileName),
	}
	if cerr != nil {
		return sum, fmt.Errorf("perfobs: closing CPU profile: %w", cerr)
	}
	// The allocs profile reports cumulative allocation since process start
	// at the profiling rate in force when each allocation happened; a GC
	// first makes the inuse view consistent too.
	runtime.GC()
	hf, err := os.Create(sum.HeapPath)
	if err != nil {
		return sum, fmt.Errorf("perfobs: %w", err)
	}
	err = pprof.Lookup("allocs").WriteTo(hf, 0)
	if cerr := hf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return sum, fmt.Errorf("perfobs: writing heap profile: %w", err)
	}
	if fi, serr := os.Stat(sum.CPUPath); serr == nil {
		sum.CPUBytes = fi.Size()
	}
	if fi, serr := os.Stat(sum.HeapPath); serr == nil {
		sum.HeapBytes = fi.Size()
	}
	if _, perr := Prune(c.baseDir, DefaultKeepRuns); perr != nil && err == nil {
		err = perr
	}
	return sum, err
}

// String renders the summary as the one-line note the CLIs print.
func (s Summary) String() string {
	return fmt.Sprintf("%s (cpu %dB, heap %dB)", s.Dir, s.CPUBytes, s.HeapBytes)
}

// Prune removes the oldest run directories under dir beyond keep, by
// modification time. Non-directories are left alone.
func Prune(dir string, keep int) (removed int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("perfobs: pruning %s: %w", dir, err)
	}
	type runDir struct {
		name string
		mod  int64
	}
	var runs []runDir
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		info, ierr := e.Info()
		if ierr != nil {
			continue
		}
		runs = append(runs, runDir{e.Name(), info.ModTime().UnixNano()})
	}
	if len(runs) <= keep {
		return 0, nil
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].mod < runs[j].mod })
	for _, r := range runs[:len(runs)-keep] {
		if rerr := os.RemoveAll(filepath.Join(dir, r.name)); rerr != nil {
			if err == nil {
				err = fmt.Errorf("perfobs: pruning %s: %w", dir, rerr)
			}
			continue
		}
		removed++
	}
	return removed, err
}
