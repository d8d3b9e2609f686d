package engine

import (
	"errors"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/explain"
	"repro/internal/system"
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
// ascending sizes on each side. A run with a checker (opts) or an armed
// explain recorder (exp) attached needs every access of every
// configuration, so it takes the per-configuration pass.
func FamilyApplies(orgs []Org, opts *check.Options, exp *explain.Recorder) bool {
	if len(orgs) == 0 || opts != nil || exp.On() {
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
//
// Each reference probes the sizes from the smallest upward and stops at
// the first hit; each size that misses logs its own event, as the
// per-configuration pass does. Reference counts are kept once for the
// whole family. A size's gap is the couplets since its last event, and
// its gap's store hits are the store couplets since then: under
// write-back without write-allocate, every store outside an event hits.
func BuildFamily(orgs []Org, t *trace.Trace) ([]*Profile, error) {
	if !FamilyApplies(orgs, nil, nil) {
		return nil, errors.New("engine: the organizations do not form a direct-mapped size family")
	}
	if err := t.ValidateWarmStart(); err != nil {
		return nil, err
	}
	n := len(orgs)
	dcfgs := make([]cache.Config, n)
	icfgs := make([]cache.Config, n)
	ps := make([]*Profile, n)
	for j, o := range orgs {
		dcfgs[j], icfgs[j] = o.DCache, o.ICache
		ps[j] = &Profile{Org: o, TraceName: t.Name}
	}
	ds := newFamilySide(dcfgs)
	is := ds
	if !orgs[0].Unified {
		is = newFamilySide(icfgs)
	}
	w := &familyWalk{
		ps:    ps,
		logs:  make([]eventLog, n),
		last:  make([]gapMark, n),
		iWB:   make([]cache.Writeback, n),
		dWB:   make([]cache.Writeback, n),
		block: ds.blockWords,
	}
	if err := w.walk(t, is, ds); err != nil {
		return nil, err
	}
	for j, p := range ps {
		p.events = w.logs[j].take()
		w.logs[j] = eventLog{}
	}
	return ps, nil
}

// gapMark is where a size's current gap began: the couplet after its last
// event, and how many store couplets preceded that point.
type gapMark struct {
	couplet, stores int64
}

// familyWalk is the state of one BuildFamily walk.
type familyWalk struct {
	ps     []*Profile
	logs   []eventLog
	last   []gapMark
	block  int             // fetch words: whole-block fetch
	shared system.Counters // the reference counts, common to every size
	// Per size, the victim of the couplet's ifetch and of its data read.
	// A unified family's two reads probe one side, so they need a slice
	// each.
	iWB, dWB []cache.Writeback
}

// walk drives every couplet of the trace through the family.
func (w *familyWalk) walk(t *trace.Trace, is, ds *familySide) error {
	refs := t.Refs
	var couplet, stores int64 // couplets walked, store couplets among them
	warmTaken := t.WarmStart == 0
	for i := 0; i < len(refs); {
		if !warmTaken && i >= t.WarmStart {
			w.markWarm(couplet, stores)
			warmTaken = true
		}
		n := trace.CoupletLen(refs, i)
		w.shared.Couplets++
		w.shared.Refs += int64(n)

		var iAddr, dAddr uint64
		hasI, store := false, false
		iHit, dHit := 0, 0 // the first size at which each side hits
		di := i            // index of the couplet's data reference, -1 for none
		switch first := refs[i]; first.Kind {
		case trace.Ifetch:
			w.shared.Ifetches++
			iAddr = first.Extended()
			hasI = true
			iHit = is.read(iAddr, w.iWB)
			di = -1
			if n == 2 {
				di = i + 1
			}
		case trace.Load, trace.Store:
		default:
			return t.KindError(i)
		}
		dOps := [2]dOp{dNone, dNone} // the data op where it misses, and where it hits
		if di >= 0 {
			dref := refs[di]
			dAddr = dref.Extended()
			if dref.Kind == trace.Load {
				w.shared.Loads++
				dHit = ds.read(dAddr, w.dWB)
				dOps = [2]dOp{dLoadMiss, dLoadHit}
			} else {
				w.shared.Stores++
				store = true
				dHit = ds.write(dAddr)
				dOps = [2]dOp{dStoreMissNoAlloc, dStoreHit}
			}
		}

		// The sizes below the larger of the two hits interact.
		for j := range max(iHit, dHit) {
			p := w.ps[j]
			m := &w.last[j]
			var (
				flags      uint8
				op         = dNone
				iVic, dVic uint64
			)
			if hasI {
				flags = flagHasI
				if j < iHit {
					p.total.IfetchMisses++
					flags |= flagIMiss
					iVic = p.fill(w.block, w.iWB[j])
				}
			}
			if di >= 0 {
				op = dOps[1]
				if j < dHit {
					op = dOps[0]
					flags |= flagDAddr
					if store {
						p.total.StoreMisses++
						p.total.StoreThroughWords++
					} else {
						p.total.LoadMisses++
						dVic = p.fill(w.block, w.dWB[j])
					}
				}
			}
			w.logs[j].add(uint32(couplet-m.couplet), uint32(stores-m.stores), flags, op, iAddr, dAddr, iVic, dVic)
			m.couplet = couplet + 1
			m.stores = stores
			if store {
				m.stores++
			}
		}
		couplet++
		if store {
			stores++
		}
		i += n
	}
	if !warmTaken {
		w.markWarm(couplet, stores)
	}
	for j, p := range w.ps {
		w.settle(p)
		p.tailGap = uint32(couplet - w.last[j].couplet)
		p.tailGapStoreHits = uint32(stores - w.last[j].stores)
	}
	return nil
}

// settle copies the family's shared reference counts into a size's
// totals and derives its store hits: every store misses or hits.
func (w *familyWalk) settle(p *Profile) {
	tot := &p.total
	tot.Refs, tot.Couplets = w.shared.Refs, w.shared.Couplets
	tot.Ifetches, tot.Loads, tot.Stores = w.shared.Ifetches, w.shared.Loads, w.shared.Stores
	tot.StoreHits = tot.Stores - tot.StoreMisses
}

// markWarm snapshots every size's counters at the warm-start boundary and
// logs each size's marker event with the gap pending there.
func (w *familyWalk) markWarm(couplet, stores int64) {
	for j, p := range w.ps {
		w.settle(p)
		p.warmSnap = p.total
		m := &w.last[j]
		w.logs[j].add(uint32(couplet-m.couplet), uint32(stores-m.stores), flagMarker, dNone, 0, 0, 0, 0)
		*m = gapMark{couplet, stores}
	}
}
