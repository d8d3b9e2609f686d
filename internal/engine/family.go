package engine

import (
	"errors"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/trace"
)

// A direct-mapped size family is a list of organizations that differ only
// in size: direct-mapped caches with one block size, whole-block fetch,
// write-back and no write-allocate, in strictly ascending power-of-two
// sizes. Such caches satisfy inclusion (Mattson et al., 1970). Only reads
// allocate, so each set holds the block of its most recent read, and the
// sets of a larger size refine those of a smaller one: a block resident at
// one size is resident at every larger size, and a hit at one size is a
// hit at every larger size. BuildFamily exploits this to build every
// size's profile in one walk of the trace.

// FamilyApplies reports whether BuildFamily builds the organizations'
// profiles: all split or all unified, direct-mapped, one block size,
// whole-block fetch, write-back, no write-allocate, and strictly
// ascending sizes on each side. A run with a checker (opts) attached
// needs every access of every configuration, so it takes the
// per-configuration pass.
func FamilyApplies(orgs []Org, opts *check.Options) bool {
	if len(orgs) == 0 || opts != nil {
		return false
	}
	block := orgs[0].DCache.BlockWords
	member := func(c cache.Config) bool {
		return c.Assoc == 1 && c.BlockWords == block && !c.SubBlocked() &&
			c.WritePolicy == cache.WriteBack && !c.WriteAllocate
	}
	for k, o := range orgs {
		if o.Validate() != nil || o.Unified != orgs[0].Unified ||
			!member(o.DCache) || (!o.Unified && !member(o.ICache)) {
			return false
		}
		if k > 0 && (o.DCache.SizeWords <= orgs[k-1].DCache.SizeWords ||
			!o.Unified && o.ICache.SizeWords <= orgs[k-1].ICache.SizeWords) {
			return false
		}
	}
	return true
}

// dmSize is one size of a family side: a direct-mapped cache reduced to
// its tags and dirty word masks.
type dmSize struct {
	setMask uint64
	tags    []uint64 // block number + 1 per set; 0 is an empty set
	dirty   []uint64 // maskWords per set
}

// familySide is one side (I, D or unified) of a family walk: the sizes in
// ascending order.
type familySide struct {
	sizes      []dmSize
	blockShift uint
	blockWords int
	maskWords  int
}

func newFamilySide(cfgs []cache.Config) *familySide {
	block := cfgs[0].BlockWords
	fs := &familySide{
		sizes:      make([]dmSize, len(cfgs)),
		blockShift: uint(bits.TrailingZeros(uint(block))),
		blockWords: block,
		maskWords:  (block + 63) / 64,
	}
	for j, c := range cfgs {
		sets := c.Sets()
		fs.sizes[j] = dmSize{
			setMask: uint64(sets - 1),
			tags:    make([]uint64, sets),
			dirty:   make([]uint64, sets*fs.maskWords),
		}
	}
	return fs
}

// read probes the sizes from the smallest upward for a read of addr and
// returns the first that hits (len(sizes) if none does). Every smaller
// size misses: it installs the block and records its victim in wb[j]. A
// dirty victim's mask moves to the next size, which holds the victim by
// inclusion. The read evicts the victim from every size that holds it in
// the read's set, smallest first, so the largest such size writes back
// the union of the victim's dirty words.
func (fs *familySide) read(addr uint64, wb []cache.Writeback) int {
	block := addr >> fs.blockShift
	tag := block + 1
	mw := fs.maskWords
	for j := range fs.sizes {
		sz := &fs.sizes[j]
		set := block & sz.setMask
		old := sz.tags[set]
		if old == tag {
			return j
		}
		sz.tags[set] = tag
		var v cache.Writeback
		if old != 0 {
			dirty := sz.dirty[int(set)*mw : int(set)*mw+mw]
			for w, m := range dirty {
				if m == 0 {
					continue
				}
				v.DirtyWords += bits.OnesCount64(m)
				if j+1 < len(fs.sizes) {
					next := &fs.sizes[j+1]
					next.dirty[int((old-1)&next.setMask)*mw+w] |= m
				}
				dirty[w] = 0
			}
			if v.DirtyWords > 0 {
				v.BlockAddr = (old - 1) << fs.blockShift
				v.Words = fs.blockWords
			}
		}
		wb[j] = v
	}
	return len(fs.sizes)
}

// write probes the sizes from the smallest upward for a store to addr and
// returns the first that holds its block (len(sizes) if none does). A
// store miss allocates nothing. A hit marks the word dirty at that
// smallest holder only: the mark reaches the larger sizes when the
// smaller ones evict the block (see read).
func (fs *familySide) write(addr uint64) int {
	block := addr >> fs.blockShift
	tag := block + 1
	for j := range fs.sizes {
		sz := &fs.sizes[j]
		set := block & sz.setMask
		if sz.tags[set] == tag {
			off := int(addr) & (fs.blockWords - 1)
			sz.dirty[int(set)*fs.maskWords+off/64] |= 1 << uint(off%64)
			return j
		}
	}
	return len(fs.sizes)
}

// BuildFamily builds the profiles of a direct-mapped size family (see
// FamilyApplies) in one walk of the trace. Each profile equals
// BuildProfile's for its organization.
func BuildFamily(orgs []Org, t *trace.Trace) ([]*Profile, error) {
	if !FamilyApplies(orgs, nil) {
		return nil, errors.New("engine: the organizations do not form a direct-mapped size family")
	}
	if err := t.ValidateWarmStart(); err != nil {
		return nil, err
	}
	n := len(orgs)
	dcfgs := make([]cache.Config, n)
	icfgs := make([]cache.Config, n)
	ps := make([]*Profile, n)
	ms := make([]member, n)
	for j, o := range orgs {
		dcfgs[j], icfgs[j] = o.DCache, o.ICache
		ps[j] = &Profile{Org: o, TraceName: t.Name}
		ms[j].p = ps[j]
	}
	f := &family{ds: newFamilySide(dcfgs), iWB: make([]cache.Writeback, n), dWB: make([]cache.Writeback, n)}
	f.is = f.ds
	if !orgs[0].Unified {
		f.is = newFamilySide(icfgs)
	}
	block := f.ds.blockWords // whole-block fetch
	w := walk{ifw: block, dfw: block, fam: f}
	if err := w.run(t, ms); err != nil {
		return nil, err
	}
	return ps, nil
}

// family is the member state of a BuildFamily walk: its sides and, per
// size, the victim of the couplet's ifetch and of its data read. A unified
// family's two reads probe one side, so they need a slice each.
type family struct {
	is, ds   *familySide
	iWB, dWB []cache.Writeback
}

// probeFamily drives the couplet through the family. Each reference probes
// the sizes from the smallest upward and stops at the first hit; the sizes
// below the larger of the two hits interact, and each logs its own event.
func (w *walk) probeFamily(ms []member, c *couplet) {
	f := w.fam
	iHit, dHit := 0, 0 // the first size at which each side hits
	if c.hasI {
		iHit = f.is.read(c.iAddr, f.iWB)
	}
	dOps := [2]dOp{dNone, dNone} // the data op where it misses, and where it hits
	switch {
	case c.load:
		dHit = f.ds.read(c.dAddr, f.dWB)
		dOps = [2]dOp{dLoadMiss, dLoadHit}
	case c.store:
		dHit = f.ds.write(c.dAddr)
		dOps = [2]dOp{dStoreMissNoAlloc, dStoreHit}
	}
	for j := range max(iHit, dHit) {
		p := ms[j].p
		var (
			flags      uint8
			op         = dOps[1]
			iVic, dVic uint64
		)
		if c.hasI {
			flags = flagHasI
			if j < iHit {
				p.total.IfetchMisses++
				flags |= flagIMiss
				iVic = p.fill(w.ifw, f.iWB[j])
			}
		}
		if j < dHit {
			op = dOps[0]
			flags |= flagDAddr
			if c.store {
				p.total.StoreMisses++
				p.total.StoreThroughWords++
			} else {
				p.total.LoadMisses++
				dVic = p.fill(w.dfw, f.dWB[j])
			}
		}
		w.emit(&ms[j], c, flags, op, iVic, dVic)
	}
}
