// Package system implements the single-phase reference simulator: a
// pipelined CPU issuing simultaneous instruction+data reference couplets
// into split (or unified) virtual caches, with write buffers between every
// level and a synchronous main memory, optionally through a second-level
// cache.
//
// It is the executable specification of the paper's machine model. The
// engine package implements the same semantics in two phases for speed and
// is cross-validated against this package cycle-for-cycle.
package system

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/explain"
	"repro/internal/mem"
	"repro/internal/simtrace"
)

// FetchPolicy selects when a missing read reference completes.
type FetchPolicy uint8

const (
	// FetchWholeBlock completes the reference when the entire block has
	// arrived (the paper's base machine: "entire blocks are fetched on a
	// miss").
	FetchWholeBlock FetchPolicy = iota
	// EarlyContinue lets the processor continue once the desired word
	// arrives; the fill still proceeds from the start of the block. One
	// of the miss-penalty-reduction techniques of Section 5.
	EarlyContinue
	// LoadForward starts the fetch at the desired word (wrapping), so
	// the processor continues after the first transfer unit. The most
	// aggressive Section 5 technique.
	LoadForward
)

func (f FetchPolicy) String() string {
	switch f {
	case FetchWholeBlock:
		return "whole-block"
	case EarlyContinue:
		return "early-continue"
	case LoadForward:
		return "load-forward"
	}
	return fmt.Sprintf("FetchPolicy(%d)", uint8(f))
}

// L2Config describes an optional second-level cache between the first-level
// caches and main memory.
type L2Config struct {
	// Cache is the L2 organization. Its block must be at least as large
	// as both L1 blocks.
	Cache cache.Config
	// AccessCycles is the L2 tag+array access time in CPU cycles before
	// the first word can transfer back toward L1.
	AccessCycles int
	// WriteBufDepth is the depth of the write buffer between L2 and main
	// memory.
	WriteBufDepth int
}

// Config fully describes a simulated system. DefaultConfig returns the
// paper's base machine.
type Config struct {
	// CycleNs is the CPU/cache cycle time in nanoseconds; the paper
	// assumes the system cycle time is determined by the cache.
	CycleNs int
	// ICache and DCache are the split first-level caches. When Unified
	// is set, DCache services every reference and ICache is ignored.
	ICache cache.Config
	DCache cache.Config
	// Unified folds instruction fetches into the data cache.
	Unified bool
	// Fetch selects the read-miss completion policy.
	Fetch FetchPolicy
	// WriteBufDepth is the depth of the write buffer between the L1
	// caches and the next level (the paper provides four blocks).
	WriteBufDepth int
	// L2, when non-nil, interposes a second-level cache. For deeper
	// hierarchies use Levels instead (L2 first); setting both is an
	// error.
	L2 *L2Config
	// Levels describes a multilevel hierarchy below L1, nearest level
	// first (L2, L3, …). Block sizes must not shrink going down.
	Levels []L2Config
	// Mem is the main memory timing.
	Mem mem.Config
	// CollectLatencies enables the couplet service-time histogram,
	// retrievable via (*System).CoupletLatencies after a Run.
	CollectLatencies bool
	// SelfCheck, when non-nil, runs the check package's reference model
	// in lockstep with the L1 caches and write buffer: every access is
	// diffed against the oracle and structural invariants run at the
	// configured interval, with the first divergence aborting the run as
	// a typed *check.Divergence error. Excluded from JSON so runner
	// checkpoint keys (which hash the encoded config) are unchanged by
	// enabling it.
	SelfCheck *check.Options `json:"-"`
	// Trace, when non-nil, arms the in-run instrumentation recorder
	// (internal/simtrace): cycle attribution and interval windows,
	// retrievable via (*System).Recorder after a Run. Purely passive —
	// simulated timing and all counters are bit-identical with it on or
	// off. Excluded from JSON for the same
	// reason as SelfCheck: runner checkpoint keys hash the encoded
	// config and must not change when instrumentation is enabled.
	Trace *simtrace.Options `json:"-"`
	// Explain, when non-nil, arms the explainability recorder
	// (internal/explain): 3C miss classification against shadow infinite
	// and fully-associative LRU caches, retrievable via
	// (*System).Explainer after a Run. Purely passive and excluded from
	// JSON for the same reasons as Trace.
	Explain *explain.Options `json:"-"`
}

// effectiveLevels resolves the L2 sugar field and Levels into one list,
// nearest level first.
func (c Config) effectiveLevels() []L2Config {
	if c.L2 != nil {
		return append([]L2Config{*c.L2}, c.Levels...)
	}
	return c.Levels
}

// DefaultConfig returns the paper's base system (Section 2): split 64 KB I
// and D caches organized as 4K blocks of four words, direct mapped, whole
// blocks fetched on a miss, write-back data cache with no fetch on write
// miss, a four-block write buffer, a 40 ns cycle, and the default
// aggressive memory (180 ns latency, one word per cycle, 120 ns recovery).
func DefaultConfig() Config {
	l1 := cache.Config{
		SizeWords:   64 * 1024 / 4, // 64 KB of 4-byte words
		BlockWords:  4,
		Assoc:       1,
		Replacement: cache.Random,
		WritePolicy: cache.WriteBack,
	}
	return Config{
		CycleNs:       40,
		ICache:        l1,
		DCache:        l1,
		WriteBufDepth: 4,
		Mem:           mem.DefaultConfig(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.CycleNs <= 0 {
		return fmt.Errorf("system: non-positive cycle time %d ns", c.CycleNs)
	}
	if !c.Unified {
		if err := c.ICache.Validate(); err != nil {
			return fmt.Errorf("system: icache: %w", err)
		}
	}
	if err := c.DCache.Validate(); err != nil {
		return fmt.Errorf("system: dcache: %w", err)
	}
	if c.WriteBufDepth < 0 {
		return fmt.Errorf("system: negative write buffer depth %d", c.WriteBufDepth)
	}
	if err := c.Mem.Validate(); err != nil {
		return fmt.Errorf("system: %w", err)
	}
	if c.L2 != nil && len(c.Levels) > 0 {
		return fmt.Errorf("system: set either L2 or Levels, not both")
	}
	prevBlock := c.DCache.BlockWords
	if !c.Unified && c.ICache.BlockWords > prevBlock {
		prevBlock = c.ICache.BlockWords
	}
	for i, lvl := range c.effectiveLevels() {
		name := fmt.Sprintf("l%d", i+2)
		if err := lvl.Cache.Validate(); err != nil {
			return fmt.Errorf("system: %s: %w", name, err)
		}
		if lvl.AccessCycles < 1 {
			return fmt.Errorf("system: %s access cycles %d < 1", name, lvl.AccessCycles)
		}
		if lvl.WriteBufDepth < 0 {
			return fmt.Errorf("system: negative %s write buffer depth %d", name, lvl.WriteBufDepth)
		}
		if lvl.Cache.BlockWords < prevBlock {
			return fmt.Errorf("system: %s block %dW smaller than the level above (%dW)",
				name, lvl.Cache.BlockWords, prevBlock)
		}
		prevBlock = lvl.Cache.BlockWords
	}
	return nil
}

// TotalL1SizeBytes returns the combined data capacity of the first-level
// caches in bytes, the X axis of most of the paper's figures.
func (c Config) TotalL1SizeBytes() int {
	if c.Unified {
		return c.DCache.SizeWords * 4
	}
	return (c.ICache.SizeWords + c.DCache.SizeWords) * 4
}
