// Package cache implements the set-associative cache mechanism shared by
// every simulator in this repository: tag/valid/dirty state, per-word dirty
// masks, replacement policies, and the write strategies the paper models.
//
// The cache is a pure behavioural mechanism — it answers "hit or miss, and
// what was evicted" — and carries no notion of time. Timing lives in the
// system and engine packages, keeping organizational behaviour strictly
// independent of the cycle time, which is the property the paper's (and our)
// two-phase simulation methodology exploits.
//
// Addresses are PID-extended word addresses (trace.Ref.Extended): the paper
// simulates virtual caches that include the process identifier with the
// high-order address bits in the tag field, so lookups index with the low
// address bits and compare full extended block numbers.
package cache

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
)

// Replacement selects the victim policy. The paper uses random replacement
// regardless of set size; LRU and FIFO are provided for ablation studies.
type Replacement uint8

const (
	// Random replacement, the paper's choice.
	Random Replacement = iota
	// LRU evicts the least recently used line in the set.
	LRU
	// FIFO evicts lines in allocation order.
	FIFO
)

func (r Replacement) String() string {
	switch r {
	case Random:
		return "random"
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	}
	return fmt.Sprintf("Replacement(%d)", uint8(r))
}

// WritePolicy selects how writes propagate.
type WritePolicy uint8

const (
	// WriteBack marks lines dirty and writes them out on eviction (the
	// paper's data-cache policy).
	WriteBack WritePolicy = iota
	// WriteThrough propagates every write immediately; lines are never
	// dirty.
	WriteThrough
)

func (w WritePolicy) String() string {
	if w == WriteBack {
		return "write-back"
	}
	return "write-through"
}

// Config describes one cache.
type Config struct {
	// SizeWords is the data capacity in 32-bit words (a power of two).
	SizeWords int
	// BlockWords is the block (line) size in words (a power of two).
	BlockWords int
	// Assoc is the set size (degree of associativity); 1 = direct
	// mapped. Must divide SizeWords/BlockWords.
	Assoc int
	// Replacement policy; Random matches the paper.
	Replacement Replacement
	// WritePolicy; WriteBack matches the paper.
	WritePolicy WritePolicy
	// WriteAllocate fetches the block on a write miss. The paper's data
	// cache does no fetch on write miss (false).
	WriteAllocate bool
	// FetchWords is the fetch (transfer) size in words: how much is
	// brought in from the next level on a miss. Zero or BlockWords
	// fetches whole blocks (the paper's base system). A smaller
	// power-of-two divisor of BlockWords selects sub-block placement:
	// lines carry a valid bit per fetch unit and only the addressed
	// sub-block is fetched on a miss.
	FetchWords int
	// Seed makes random replacement deterministic.
	Seed uint64
}

// EffectiveFetchWords returns the fetch size, defaulting to the block size.
func (c Config) EffectiveFetchWords() int {
	if c.FetchWords == 0 {
		return c.BlockWords
	}
	return c.FetchWords
}

// SubBlocked reports whether the cache fetches less than whole blocks.
func (c Config) SubBlocked() bool {
	return c.FetchWords != 0 && c.FetchWords != c.BlockWords
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SizeWords <= 0 || c.SizeWords&(c.SizeWords-1) != 0:
		return fmt.Errorf("cache: size %d words is not a positive power of two", c.SizeWords)
	case c.BlockWords <= 0 || c.BlockWords&(c.BlockWords-1) != 0:
		return fmt.Errorf("cache: block %d words is not a positive power of two", c.BlockWords)
	case c.BlockWords > c.SizeWords:
		return fmt.Errorf("cache: block %d words exceeds size %d words", c.BlockWords, c.SizeWords)
	case c.Assoc <= 0:
		return fmt.Errorf("cache: non-positive associativity %d", c.Assoc)
	}
	blocks := c.SizeWords / c.BlockWords
	if c.Assoc > blocks {
		return fmt.Errorf("cache: associativity %d exceeds %d blocks", c.Assoc, blocks)
	}
	sets := blocks / c.Assoc
	if sets*c.Assoc != blocks || sets&(sets-1) != 0 {
		return fmt.Errorf("cache: %d blocks / associativity %d is not a power-of-two set count", blocks, c.Assoc)
	}
	if c.FetchWords != 0 {
		if c.FetchWords < 0 || c.FetchWords&(c.FetchWords-1) != 0 {
			return fmt.Errorf("cache: fetch size %d words is not a positive power of two", c.FetchWords)
		}
		if c.FetchWords > c.BlockWords {
			return fmt.Errorf("cache: fetch size %d exceeds block size %d", c.FetchWords, c.BlockWords)
		}
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeWords / c.BlockWords / c.Assoc }

func (c Config) String() string {
	fetch := ""
	if c.SubBlocked() {
		fetch = fmt.Sprintf(" fetch%dW", c.FetchWords)
	}
	return fmt.Sprintf("%dW/%dB blk%dW%s %d-way %s %s",
		c.SizeWords, c.SizeWords*4, c.BlockWords, fetch, c.Assoc, c.Replacement, c.WritePolicy)
}

// Writeback describes the line an access displaced. BlockAddr is the
// displaced block's extended word address (zero when nothing was
// displaced). Words is how many words its write back transfers: the whole
// block for whole-block caches ("On write backs, the entire block is
// transferred, regardless of which words were dirty"), or the dirty
// sub-blocks for sub-block caches. DirtyWords counts its dirty words; the
// paper's Figure 3-1 reports both traffic ratios. Both counts are zero
// unless the displaced line was dirty.
type Writeback struct {
	BlockAddr  uint64
	Words      int
	DirtyWords int
}

// Dirty reports whether the displaced line must be written back. A dirty
// line always holds at least one dirty word, so it always writes back a
// positive number of words.
func (wb Writeback) Dirty() bool { return wb.Words > 0 }

// Result reports the outcome of a single access. It has four fields in 32
// bytes, so the compiler returns it in registers and every caller, the
// behavioural pass's unchecked loop included, can take it whole.
type Result struct {
	// Hit reports whether the block was present.
	Hit bool
	// Allocated reports whether a line was (re)filled by this access.
	Allocated bool
	// Displaced reports whether the fill evicted a valid line.
	Displaced bool
	// Victim describes the displaced line when Displaced is set.
	Victim Writeback
}

// Interface is the access surface the simulator cores drive: a *Cache
// itself, or a decorator stacked on one (check.Shadow, explain.Probe).
type Interface interface {
	Read(addr uint64) Result
	Write(addr uint64) Result
	Config() Config
}

// Cache is the behavioural cache state. Not safe for concurrent use.
type Cache struct {
	cfg        Config
	blockShift uint
	setMask    uint64
	assoc      int
	maskWords  int // uint64 words per per-line dirty mask
	fetchWords int

	tags  []uint64 // full extended block number per line
	valid []bool
	dirty []bool
	masks []uint64 // lines × maskWords dirty bitmaps
	vmask []uint64 // per-word valid bitmaps (sub-block mode only)
	used  []uint64 // LRU ticks
	fifo  []uint32 // per-set next victim way (FIFO replacement only)

	tick uint64
	rng  *rand.Rand
}

// ReplacementRNG returns the random-replacement stream for a seed. It is
// exported so the check package's reference model can consume the
// identical stream: run in lockstep, both models then pick the same
// victims and any disagreement is a logic bug rather than noise.
func ReplacementRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))
}

// New constructs a cache; the configuration must validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	lines := sets * cfg.Assoc
	maskWords := (cfg.BlockWords + 63) / 64
	c := &Cache{
		cfg:        cfg,
		blockShift: uint(bits.TrailingZeros(uint(cfg.BlockWords))),
		setMask:    uint64(sets - 1),
		assoc:      cfg.Assoc,
		maskWords:  maskWords,
		fetchWords: cfg.EffectiveFetchWords(),
		tags:       make([]uint64, lines),
		valid:      make([]bool, lines),
		dirty:      make([]bool, lines),
		masks:      make([]uint64, lines*maskWords),
		used:       make([]uint64, lines),
		rng:        ReplacementRNG(cfg.Seed),
	}
	if cfg.SubBlocked() {
		c.vmask = make([]uint64, lines*maskWords)
	}
	if cfg.Replacement == FIFO {
		// 32 bits per set, since a set may hold more than 65,536 ways.
		c.fifo = make([]uint32, sets)
	}
	return c, nil
}

// MustNew is New that panics on configuration errors, for tests and tables
// of known-good configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// lookup finds addr's block, returning its line index or -1.
func (c *Cache) lookup(block uint64) (set int, line int) {
	set = int(block & c.setMask)
	base := set * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == block {
			return set, base + w
		}
	}
	return set, -1
}

// victimWay selects a way to evict in the given set.
func (c *Cache) victimWay(set int) int {
	base := set * c.assoc
	// Prefer an invalid way.
	for w := 0; w < c.assoc; w++ {
		if !c.valid[base+w] {
			return base + w
		}
	}
	switch c.cfg.Replacement {
	case LRU:
		best := base
		for w := 1; w < c.assoc; w++ {
			if c.used[base+w] < c.used[best] {
				best = base + w
			}
		}
		return best
	case FIFO:
		w := int(c.fifo[set])
		c.fifo[set] = uint32((w + 1) % c.assoc)
		return base + w
	default: // Random
		if c.assoc == 1 {
			return base
		}
		return base + c.rng.IntN(c.assoc)
	}
}

// evict captures and clears the line, reporting whether it held a valid
// block and that block's write back.
func (c *Cache) evict(line int) (valid bool, wb Writeback) {
	if c.valid[line] {
		valid = true
		wb.BlockAddr = c.tags[line] << c.blockShift
		if c.dirty[line] {
			for i := 0; i < c.maskWords; i++ {
				wb.DirtyWords += bits.OnesCount64(c.masks[line*c.maskWords+i])
			}
			if c.vmask == nil {
				// Whole-block caches transfer the entire block
				// regardless of which words were dirty.
				wb.Words = c.cfg.BlockWords
			} else {
				// Sub-block caches write back dirty sub-blocks.
				for s := 0; s < c.cfg.BlockWords; s += c.fetchWords {
					if c.maskAny(c.masks, line, s, c.fetchWords) {
						wb.Words += c.fetchWords
					}
				}
			}
		}
	}
	c.valid[line] = false
	c.dirty[line] = false
	for i := 0; i < c.maskWords; i++ {
		c.masks[line*c.maskWords+i] = 0
	}
	if c.vmask != nil {
		for i := 0; i < c.maskWords; i++ {
			c.vmask[line*c.maskWords+i] = 0
		}
	}
	return valid, wb
}

// maskAny reports whether any of the n mask bits starting at word offset
// `start` of the line are set.
func (c *Cache) maskAny(mask []uint64, line, start, n int) bool {
	base := line * c.maskWords
	for i := start; i < start+n; i++ {
		if mask[base+i/64]&(1<<uint(i%64)) != 0 {
			return true
		}
	}
	return false
}

// maskSet sets n mask bits starting at word offset `start` of the line.
func (c *Cache) maskSet(mask []uint64, line, start, n int) {
	base := line * c.maskWords
	for i := start; i < start+n; i++ {
		mask[base+i/64] |= 1 << uint(i%64)
	}
}

// subStart returns the word offset of addr's sub-block within its block.
func (c *Cache) subStart(addr uint64) int {
	off := int(addr & uint64(c.cfg.BlockWords-1))
	return off &^ (c.fetchWords - 1)
}

// wordValid reports whether addr's word is valid in the (tag-matching)
// line. Whole-block lines are fully valid.
func (c *Cache) wordValid(line int, addr uint64) bool {
	if c.vmask == nil {
		return true
	}
	off := int(addr & uint64(c.cfg.BlockWords-1))
	return c.vmask[line*c.maskWords+off/64]&(1<<uint(off%64)) != 0
}

// fillSub marks addr's sub-block valid (sub-block mode only).
func (c *Cache) fillSub(line int, addr uint64) {
	if c.vmask != nil {
		c.maskSet(c.vmask, line, c.subStart(addr), c.fetchWords)
	}
}

// fill installs block into line.
func (c *Cache) fill(line int, block uint64) {
	c.tags[line] = block
	c.valid[line] = true
	c.tick++
	c.used[line] = c.tick
}

// touch records a hit on line for LRU replacement.
func (c *Cache) touch(line int) {
	c.tick++
	c.used[line] = c.tick
}

// allocate brings addr's fetch unit into a new line of block's set,
// displacing a victim, and returns the line, whether the victim held a
// valid block, and that block's write back.
func (c *Cache) allocate(block, addr uint64) (line int, displaced bool, wb Writeback) {
	line = c.victimWay(int(block & c.setMask))
	displaced, wb = c.evict(line)
	c.fill(line, block)
	c.fillSub(line, addr)
	return line, displaced, wb
}

// markDirty dirties addr's word in line under write-back; write-through
// lines never hold dirty state.
func (c *Cache) markDirty(line int, addr uint64) {
	if c.cfg.WritePolicy == WriteBack {
		c.dirty[line] = true
		c.setDirtyWord(line, addr)
	}
}

// Read performs a load or instruction fetch of the word at addr. On a miss
// the fetch unit containing the word is brought in — the whole block for
// the paper's base system, or one sub-block under sub-block placement —
// displacing a victim if a new line was needed.
func (c *Cache) Read(addr uint64) (r Result) {
	block := addr >> c.blockShift
	if _, line := c.lookup(block); line >= 0 {
		c.touch(line)
		if c.wordValid(line, addr) {
			r.Hit = true
			return r
		}
		// Sub-block miss within a present line: fetch just the
		// sub-block; nothing is displaced.
		c.fillSub(line, addr)
		r.Allocated = true
		return r
	}
	_, r.Displaced, r.Victim = c.allocate(block, addr)
	r.Allocated = true
	return r
}

// Write performs a store of the word at addr according to the configured
// write policy. For write-back caches a hit marks the word dirty; a miss
// with no write-allocate leaves the cache unchanged (the word goes directly
// toward memory, which the caller models). With write-allocate the block is
// fetched and then dirtied.
func (c *Cache) Write(addr uint64) (r Result) {
	block := addr >> c.blockShift
	if _, line := c.lookup(block); line >= 0 {
		c.touch(line)
		if c.wordValid(line, addr) {
			c.markDirty(line, addr)
			r.Hit = true
			return r
		}
		// The word's sub-block is not resident: with write-allocate
		// the sub-block is fetched and dirtied; without, the word
		// passes toward memory like any other write miss.
		if c.cfg.WriteAllocate {
			c.fillSub(line, addr)
			c.markDirty(line, addr)
			r.Allocated = true
		}
		return r
	}
	if !c.cfg.WriteAllocate {
		return r
	}
	var line int
	line, r.Displaced, r.Victim = c.allocate(block, addr)
	c.markDirty(line, addr)
	r.Allocated = true
	return r
}

func (c *Cache) setDirtyWord(line int, addr uint64) {
	off := int(addr & uint64(c.cfg.BlockWords-1))
	c.masks[line*c.maskWords+off/64] |= 1 << uint(off%64)
}

// Contains reports whether addr's block is present, without touching
// replacement state.
func (c *Cache) Contains(addr uint64) bool {
	_, line := c.lookup(addr >> c.blockShift)
	return line >= 0
}

// Invalidate removes addr's block, reporting whether it was present and
// its write back. The cache's and the check package's tests use it to
// evict a line outside the access stream.
func (c *Cache) Invalidate(addr uint64) (present bool, wb Writeback) {
	_, line := c.lookup(addr >> c.blockShift)
	if line < 0 {
		return false, Writeback{}
	}
	return c.evict(line)
}

// Reset invalidates every line.
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.dirty[i] = false
		c.used[i] = 0
	}
	for i := range c.masks {
		c.masks[i] = 0
	}
	for i := range c.vmask {
		c.vmask[i] = 0
	}
	for i := range c.fifo {
		c.fifo[i] = 0
	}
	c.tick = 0
}

// DirtyLines returns the number of dirty lines currently cached.
func (c *Cache) DirtyLines() int {
	n := 0
	for i, d := range c.dirty {
		if d && c.valid[i] {
			n++
		}
	}
	return n
}

// ValidLines returns the number of valid lines currently cached.
func (c *Cache) ValidLines() int {
	n := 0
	for _, v := range c.valid {
		if v {
			n++
		}
	}
	return n
}

// LineState describes one way of a set, for state dumps and cross-model
// residency comparison.
type LineState struct {
	Way   int
	Tag   uint64 // extended block number
	Valid bool
	Dirty bool
}

// SetState returns every way of the set in way order.
func (c *Cache) SetState(set int) []LineState {
	base := set * c.assoc
	out := make([]LineState, c.assoc)
	for w := 0; w < c.assoc; w++ {
		out[w] = LineState{Way: w, Tag: c.tags[base+w], Valid: c.valid[base+w], Dirty: c.dirty[base+w]}
	}
	return out
}

// CheckInvariants verifies structural invariants, for property tests:
// every valid tag maps to its own set, no set holds duplicate tags, dirty
// implies valid, dirty word masks are empty exactly when the line is clean,
// and write-through caches hold no dirty state.
func (c *Cache) CheckInvariants() error {
	sets := c.cfg.Sets()
	for s := 0; s < sets; s++ {
		base := s * c.assoc
		for w := 0; w < c.assoc; w++ {
			i := base + w
			if !c.valid[i] {
				if c.dirty[i] {
					return fmt.Errorf("cache: line %d dirty but invalid", i)
				}
				continue
			}
			if int(c.tags[i]&c.setMask) != s {
				return fmt.Errorf("cache: line %d tag %#x indexes set %d, stored in set %d",
					i, c.tags[i], c.tags[i]&c.setMask, s)
			}
			for w2 := w + 1; w2 < c.assoc; w2++ {
				j := base + w2
				if c.valid[j] && c.tags[j] == c.tags[i] {
					return fmt.Errorf("cache: duplicate tag %#x in set %d", c.tags[i], s)
				}
			}
			var maskBits int
			for k := 0; k < c.maskWords; k++ {
				maskBits += bits.OnesCount64(c.masks[i*c.maskWords+k])
			}
			if c.dirty[i] && maskBits == 0 {
				return fmt.Errorf("cache: line %d dirty with empty word mask", i)
			}
			if !c.dirty[i] && maskBits != 0 {
				return fmt.Errorf("cache: line %d clean with %d dirty words", i, maskBits)
			}
			if c.cfg.WritePolicy == WriteThrough && c.dirty[i] {
				return fmt.Errorf("cache: write-through line %d dirty", i)
			}
			if c.vmask != nil {
				for k := 0; k < c.maskWords; k++ {
					d := c.masks[i*c.maskWords+k]
					v := c.vmask[i*c.maskWords+k]
					if d&^v != 0 {
						return fmt.Errorf("cache: line %d has dirty words outside the valid mask", i)
					}
				}
				if c.maskAny(c.vmask, i, 0, c.cfg.BlockWords) == false {
					return fmt.Errorf("cache: line %d valid with no valid sub-blocks", i)
				}
			}
		}
	}
	return nil
}
