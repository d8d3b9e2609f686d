package engine

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/cache"
)

// TestEventRecordSize pins the record at 16 bytes: two gap counters and
// one word. Every resident profile holds one record per event plus one per
// extra word, so a wider record costs memory on every profile.
func TestEventRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 16 {
		t.Fatalf("event record is %d bytes, want 16", got)
	}
}

// eventShape is one kind of event a producer emits: which references the
// couplet has and how they fared, the victims' dirtiness, and the
// organization's write policy and split.
type eventShape struct {
	hasI, iMiss    bool
	op             dOp
	iDirty, dDirty bool
	wt, unified    bool
}

func (s eventShape) String() string {
	return fmt.Sprintf("hasI=%v iMiss=%v op=%d iDirty=%v dDirty=%v wt=%v unified=%v",
		s.hasI, s.iMiss, s.op, s.iDirty, s.dDirty, s.wt, s.unified)
}

// readsData reports whether the replay reads the couplet's data address:
// for a data miss, and for a store hit that writes through.
func (s eventShape) readsData() bool {
	switch s.op {
	case dLoadMiss, dStoreMissNoAlloc, dStoreMissAlloc:
		return true
	case dStoreHit:
		return s.wt
	}
	return false
}

// eventShapes lists every event shape BuildProfile and BuildFamily can
// log: ifetch absent, hit or missed × each data op × clean or dirty
// victims × write-back or write-through × split or unified. A dirty victim
// needs a write-back cache and a miss that fills; a dirty ifetch victim
// also needs a unified cache, since nothing stores into a split I-cache.
// A couplet that neither misses nor writes through is no event, and one
// with no reference at all is the marker.
func eventShapes() []eventShape {
	var out []eventShape
	bools := []bool{false, true}
	for _, unified := range bools {
		for _, wt := range bools {
			for _, hasI := range bools {
				for _, iMiss := range bools {
					for op := dNone; op <= dStoreMissAlloc; op++ {
						for _, iDirty := range bools {
							for _, dDirty := range bools {
								s := eventShape{hasI, iMiss, op, iDirty, dDirty, wt, unified}
								fills := op == dLoadMiss || op == dStoreMissAlloc
								switch {
								case iMiss && !hasI, !hasI && op == dNone,
									!iMiss && !s.readsData(),
									iDirty && (!iMiss || !unified || wt),
									dDirty && (!fills || wt):
									continue
								}
								out = append(out, s)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// extraWords is how many continuation records the shape's event takes:
// the data address beside an ifetch miss's, and each dirty victim.
func (s eventShape) extraWords() int {
	n := 0
	for _, e := range []bool{s.iMiss && s.readsData(), s.iDirty, s.dDirty} {
		if e {
			n++
		}
	}
	return n
}

// eventArgs is what a producer hands eventLog.add for one event.
type eventArgs struct {
	gap, gapStoreHits        uint32
	flags                    uint8
	op                       dOp
	iAddr, dAddr, iVic, dVic uint64
}

func (a eventArgs) addTo(l *eventLog) {
	l.add(a.gap, a.gapStoreHits, a.flags, a.op, a.iAddr, a.dAddr, a.iVic, a.dVic)
}

// args builds the event a producer logs for the shape, the k-th of a
// stream. Addresses use all 40 bits and the gaps all 32, so a field that
// lost a bit or landed in another's place shows.
func (s eventShape) args(k int) eventArgs {
	a := eventArgs{
		gap:          uint32(1<<32 - 1 - k),
		gapStoreHits: uint32(k * 3),
		op:           s.op,
		iAddr:        addrMask - uint64(k),
		dAddr:        addrMask>>1 + uint64(k)*5,
	}
	if s.hasI {
		a.flags |= flagHasI
	}
	if s.iMiss {
		a.flags |= flagIMiss
	}
	if s.readsData() {
		a.flags |= flagDAddr
	}
	var p Profile
	if s.iDirty {
		a.iVic = p.fill(16, cache.Writeback{BlockAddr: addrMask&^15 - uint64(k)<<4, Words: maxEventWords, DirtyWords: 1})
	}
	if s.dDirty {
		a.dVic = p.fill(16, cache.Writeback{BlockAddr: uint64(k) << 8, Words: 16, DirtyWords: 3})
	}
	return a
}

// replayReads is what the replay reads of an event: the gaps, the flags
// and data op, the ifetch address of an ifetch miss, the data address
// when the replay sends it toward memory, and each victim's block address
// and write-back words (zero for a clean victim).
type replayReads struct {
	gap, gapStoreHits    uint32
	marker, hasI, iMiss  bool
	op                   dOp
	iAddr, dAddr         uint64
	iVicWords, dVicWords int
	iVicAddr, dVicAddr   uint64
}

// reads is what the replay reads of an event of the shape, given its
// gaps, flags, op, addresses and victim words.
func (s eventShape) reads(gap, gapStoreHits uint32, flags uint8, op dOp, iAddr, dAddr, iVic, dVic uint64) replayReads {
	r := replayReads{gap: gap, gapStoreHits: gapStoreHits,
		marker: flags&flagMarker != 0, hasI: flags&flagHasI != 0, iMiss: flags&flagIMiss != 0, op: op}
	if r.marker {
		return r
	}
	if s.iMiss {
		r.iAddr = iAddr
		r.iVicWords, r.iVicAddr = int(iVic>>wbShift), iVic&addrMask
	}
	if s.readsData() {
		r.dAddr = dAddr
	}
	if s.op == dLoadMiss || s.op == dStoreMissAlloc {
		r.dVicWords, r.dVicAddr = int(dVic>>wbShift), dVic&addrMask
	}
	return r
}

// TestEventRoundTrip encodes every event shape the producers emit into one
// stream, with warm markers among them, and decodes it: each event must
// give back exactly what the replay reads of it, each must take one head
// record plus one continuation per extra word, and Events must count the
// events alone.
func TestEventRoundTrip(t *testing.T) {
	shapes := eventShapes()
	// The shape list must cover every data op, an ifetch miss alone, a
	// write-through store hit, and both victims dirty in one couplet.
	ops := map[dOp]bool{}
	iMissAlone, wtHit, bothDirty := false, false, false
	for _, s := range shapes {
		ops[s.op] = true
		iMissAlone = iMissAlone || s.iMiss && s.op == dNone
		wtHit = wtHit || s.wt && s.op == dStoreHit && !s.iMiss
		bothDirty = bothDirty || s.iDirty && s.dDirty
	}
	if len(ops) != int(dStoreMissAlloc)+1 || !iMissAlone || !wtHit || !bothDirty {
		t.Fatalf("shape list misses cases: ops %v, ifetch miss alone %v, write-through hit %v, both victims dirty %v",
			ops, iMissAlone, wtHit, bothDirty)
	}
	var (
		log     eventLog
		want    []eventArgs
		wshapes []eventShape
		records int
	)
	for k, s := range shapes {
		if k%50 == 0 {
			m := eventArgs{gap: uint32(k), gapStoreHits: 1, flags: flagMarker}
			m.addTo(&log)
			want, wshapes = append(want, m), append(wshapes, eventShape{})
			records++
		}
		a := s.args(k)
		a.addTo(&log)
		want, wshapes = append(want, a), append(wshapes, s)
		records += 1 + s.extraWords()
	}
	p := &Profile{events: log.take()}
	if len(p.events) != records {
		t.Fatalf("%d records for %d events, want %d", len(p.events), len(want), records)
	}
	d := decoded{evs: p.events}
	k := 0
	for n, w := range want {
		if k >= len(p.events) {
			t.Fatalf("stream ends after %d of %d events", n, len(want))
		}
		start := k
		k = d.decode(k)
		s := wshapes[n]
		got := s.reads(d.gap, d.gapStoreHits, d.flags(), d.op(), d.iAddr(), d.dAddr(), d.iVic(), d.dVic())
		if x := s.reads(w.gap, w.gapStoreHits, w.flags, w.op, w.iAddr, w.dAddr, w.iVic, w.dVic); got != x {
			t.Errorf("event %d (%v): decoded\n %+v\nwant\n %+v", n, s, got, x)
		}
		if k-start != 1+s.extraWords() {
			t.Errorf("event %d (%v): %d records, want %d", n, s, k-start, 1+s.extraWords())
		}
	}
	if k != len(p.events) {
		t.Errorf("decoding stops at record %d of %d", k, len(p.events))
	}
	if got, markers := p.Events(), (len(shapes)+49)/50; got != len(shapes) {
		t.Errorf("Events() = %d, want the %d events without the %d markers and the continuation records",
			got, len(shapes), markers)
	}
}
