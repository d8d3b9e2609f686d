package explain

import (
	"math/bits"

	"repro/internal/cache"
)

// The shadow models replicate internal/cache's placement semantics —
// fetch-unit fills, sub-block validity, the promote-before-validity-check
// on writes, allocation policy — while removing exactly one constraint
// each: infiniteShadow has unbounded capacity, lruShadow has full
// associativity at the real capacity. Keeping every other rule identical
// is what makes the 3C split well defined: each shadow isolates a single
// cause of misses.
//
// Neither model uses cache.Cache directly: a fully-associative cache.Cache
// scans all ways on lookup and victim selection, O(blocks) per access,
// which would make -explain quadratic-ish on large caches. These models
// are O(1) per access (map + intrusive list); the test battery pins
// lruShadow against a fully-associative cache.Cache bit-for-bit.

// shadowGeom carries the address-decomposition parameters shared by both
// shadows.
type shadowGeom struct {
	blockShift uint
	blockMask  uint64 // word-offset mask within a block
	fetchWords int
	subBlocked bool
	walloc     bool
}

func newShadowGeom(cfg cache.Config) shadowGeom {
	return shadowGeom{
		blockShift: uint(bits.TrailingZeros(uint(cfg.BlockWords))),
		blockMask:  uint64(cfg.BlockWords - 1),
		fetchWords: cfg.EffectiveFetchWords(),
		subBlocked: cfg.SubBlocked(),
		walloc:     cfg.WriteAllocate,
	}
}

// subMask returns the valid-bit mask a fill of addr's fetch unit sets.
// Whole-block mode uses a single always-set bit (presence only).
func (g shadowGeom) subMask(addr uint64) uint64 {
	if !g.subBlocked {
		return 1
	}
	off := int(addr & g.blockMask)
	start := off &^ (g.fetchWords - 1)
	return ((uint64(1) << uint(g.fetchWords)) - 1) << uint(start)
}

// wordBit returns the valid bit a hit of addr requires.
func (g shadowGeom) wordBit(addr uint64) uint64 {
	if !g.subBlocked {
		return 1
	}
	return uint64(1) << uint(addr&g.blockMask)
}

// infiniteShadow models a cache of unbounded capacity under the real
// cache's fetch and allocation policy. A miss here is compulsory: no
// amount of capacity or associativity under the same policy would have
// absorbed it.
type infiniteShadow struct {
	geom  shadowGeom
	lines map[uint64]uint64 // block -> valid sub-block bits
}

func newInfiniteShadow(cfg cache.Config) *infiniteShadow {
	return &infiniteShadow{geom: newShadowGeom(cfg), lines: make(map[uint64]uint64)}
}

// Access services one reference, returning whether it hit, and installs
// per the allocation policy (reads always; writes only with
// write-allocate), mirroring cache.Cache exactly.
func (s *infiniteShadow) Access(addr uint64, isWrite bool) bool {
	block := addr >> s.geom.blockShift
	vmask, present := s.lines[block]
	if present && vmask&s.geom.wordBit(addr) != 0 {
		return true
	}
	if !isWrite || s.geom.walloc {
		s.lines[block] = vmask | s.geom.subMask(addr)
	}
	return false
}

// lruShadow models a fully-associative LRU cache of the real cache's
// capacity under the real fetch and allocation policy, in O(1) per
// access. A real-cache miss that hits here was caused purely by limited
// associativity: conflict. Semantics replicated from cache.Cache:
//
//   - a tag match promotes the line to MRU *before* the word-validity
//     check — even a no-allocate write to a present line with an invalid
//     word refreshes recency;
//   - installs fill invalid ways first (no eviction until the cache is
//     full), then displace the LRU line;
//   - a sub-block miss within a present line fills in place, nothing is
//     displaced.
type lruShadow struct {
	geom     shadowGeom
	capacity int // blocks
	lines    map[uint64]*lruNode
	head     *lruNode // MRU
	tail     *lruNode // LRU
}

type lruNode struct {
	block      uint64
	vmask      uint64
	prev, next *lruNode
}

func newLRUShadow(cfg cache.Config) *lruShadow {
	return &lruShadow{
		geom:     newShadowGeom(cfg),
		capacity: cfg.SizeWords / cfg.BlockWords,
		lines:    make(map[uint64]*lruNode),
	}
}

// Access services one reference, returning whether it hit.
func (s *lruShadow) Access(addr uint64, isWrite bool) bool {
	block := addr >> s.geom.blockShift
	if n, ok := s.lines[block]; ok {
		s.promote(n)
		if n.vmask&s.geom.wordBit(addr) != 0 {
			return true
		}
		// Sub-block miss in a present line: fill in place per policy.
		if !isWrite || s.geom.walloc {
			n.vmask |= s.geom.subMask(addr)
		}
		return false
	}
	if isWrite && !s.geom.walloc {
		return false
	}
	n := &lruNode{block: block, vmask: s.geom.subMask(addr)}
	if len(s.lines) >= s.capacity {
		lru := s.tail
		s.unlink(lru)
		delete(s.lines, lru.block)
	}
	s.lines[block] = n
	s.pushFront(n)
	return false
}

func (s *lruShadow) promote(n *lruNode) {
	if s.head == n {
		return
	}
	s.unlink(n)
	s.pushFront(n)
}

func (s *lruShadow) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (s *lruShadow) pushFront(n *lruNode) {
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}
