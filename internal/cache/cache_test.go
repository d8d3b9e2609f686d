package cache

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

func mustCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func base(size, block, assoc int) Config {
	return Config{SizeWords: size, BlockWords: block, Assoc: assoc,
		Replacement: LRU, WritePolicy: WriteBack, Seed: 7}
}

func TestValidate(t *testing.T) {
	good := []Config{
		base(1024, 4, 1),
		base(1024, 4, 2),
		base(64, 64, 1),
		base(256, 4, 64), // fully associative
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v rejected: %v", cfg, err)
		}
	}
	bad := []Config{
		{},
		base(1000, 4, 1),    // size not power of two
		base(1024, 3, 1),    // block not power of two
		base(1024, 4, 3),    // 256/3 sets not integral
		base(1024, 2048, 1), // block > size
		base(1024, 4, 0),
		base(1024, 4, 512), // assoc > blocks
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%v accepted", cfg)
		}
	}
}

func TestSets(t *testing.T) {
	if s := base(1024, 4, 1).Sets(); s != 256 {
		t.Errorf("sets = %d, want 256", s)
	}
	if s := base(1024, 4, 4).Sets(); s != 64 {
		t.Errorf("4-way sets = %d, want 64", s)
	}
}

func TestReadHitMiss(t *testing.T) {
	c := mustCache(t, base(64, 4, 1))
	if r := c.Read(0); r.Hit {
		t.Fatal("cold read hit")
	}
	if r := c.Read(0); !r.Hit {
		t.Fatal("second read missed")
	}
	// Same block, different word: hit.
	if r := c.Read(3); !r.Hit {
		t.Fatal("same-block read missed")
	}
	// Next block: miss.
	if r := c.Read(4); r.Hit {
		t.Fatal("next-block read hit")
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := mustCache(t, base(64, 4, 1)) // 16 sets
	c.Read(0)
	r := c.Read(64) // same index (block 16 ≡ 0 mod 16), different tag
	if r.Hit {
		t.Fatal("conflicting read hit")
	}
	if !r.Displaced || r.Victim.BlockAddr != 0 {
		t.Fatalf("victim = %+v, want block 0", r.Victim)
	}
	if r := c.Read(0); r.Hit {
		t.Fatal("evicted block still present")
	}
}

func TestTwoWayAvoidsConflict(t *testing.T) {
	c := mustCache(t, base(64, 4, 2))
	c.Read(0)
	c.Read(128) // same set in an 8-set 2-way cache
	if r := c.Read(0); !r.Hit {
		t.Fatal("2-way cache evicted despite free way")
	}
	if r := c.Read(128); !r.Hit {
		t.Fatal("second way lost")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := mustCache(t, base(32, 4, 2)) // 4 sets, 2-way
	// Three blocks mapping to set 0: 0, 16, 32 (block addr/4 mod 4 == 0).
	c.Read(0)
	c.Read(64) // block 16 -> set 0
	c.Read(0)  // touch block 0: 64 is now LRU
	r := c.Read(128)
	if r.Hit || !r.Displaced || r.Victim.BlockAddr != 64 {
		t.Fatalf("LRU evicted %+v, want block at 64", r.Victim)
	}
	if !c.Read(0).Hit {
		t.Fatal("MRU block evicted")
	}
}

func TestFIFOReplacement(t *testing.T) {
	cfg := base(32, 4, 2)
	cfg.Replacement = FIFO
	c := mustCache(t, cfg)
	c.Read(0)
	c.Read(64)
	c.Read(0) // touching must NOT save block 0 under FIFO
	r := c.Read(128)
	if r.Hit || !r.Displaced || r.Victim.BlockAddr != 0 {
		t.Fatalf("FIFO evicted %+v, want block at 0", r.Victim)
	}
}

func TestRandomReplacementDeterministic(t *testing.T) {
	cfg := base(1024, 4, 4)
	cfg.Replacement = Random
	run := func() []bool {
		c := mustCache(t, cfg)
		rng := rand.New(rand.NewPCG(3, 4))
		hits := make([]bool, 0, 2000)
		for i := 0; i < 2000; i++ {
			hits = append(hits, c.Read(uint64(rng.IntN(4096))).Hit)
		}
		return hits
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("random replacement not deterministic at access %d", i)
		}
	}
}

func TestWriteBackDirty(t *testing.T) {
	c := mustCache(t, base(64, 4, 1))
	c.Read(0)       // fill block 0
	c.Write(1)      // dirty word 1
	c.Write(2)      // dirty word 2
	r := c.Read(64) // evict it
	if !r.Victim.Dirty() {
		t.Fatal("dirty victim reported clean")
	}
	if r.Victim.DirtyWords != 2 {
		t.Fatalf("dirty words = %d, want 2", r.Victim.DirtyWords)
	}
}

func TestWriteMissNoAllocate(t *testing.T) {
	c := mustCache(t, base(64, 4, 1))
	r := c.Write(0)
	if r.Hit || r.Allocated {
		t.Fatalf("no-allocate write miss allocated: %+v", r)
	}
	if c.Contains(0) {
		t.Fatal("block cached after no-allocate write miss")
	}
}

func TestWriteMissAllocate(t *testing.T) {
	cfg := base(64, 4, 1)
	cfg.WriteAllocate = true
	c := mustCache(t, cfg)
	r := c.Write(5)
	if r.Hit || !r.Allocated {
		t.Fatalf("write-allocate miss: %+v", r)
	}
	if !c.Contains(5) {
		t.Fatal("block missing after write-allocate")
	}
	_, v := c.Invalidate(5)
	if !v.Dirty() || v.DirtyWords != 1 {
		t.Fatalf("allocated block should be dirty in word 5: %+v", v)
	}
}

func TestWriteThroughNeverDirty(t *testing.T) {
	cfg := base(64, 4, 1)
	cfg.WritePolicy = WriteThrough
	c := mustCache(t, cfg)
	c.Read(0)
	c.Write(0)
	if c.DirtyLines() != 0 {
		t.Fatal("write-through cache holds dirty lines")
	}
	r := c.Read(64)
	if r.Victim.Dirty() {
		t.Fatal("write-through victim dirty")
	}
}

func TestLargeBlockDirtyMask(t *testing.T) {
	cfg := base(1024, 128, 1) // mask needs two uint64 words
	cfg.WriteAllocate = true
	c := mustCache(t, cfg)
	c.Write(0)
	c.Write(127)
	c.Write(64)
	_, v := c.Invalidate(0)
	if v.DirtyWords != 3 {
		t.Fatalf("dirty words = %d, want 3 across mask words", v.DirtyWords)
	}
}

func TestInvalidate(t *testing.T) {
	c := mustCache(t, base(64, 4, 1))
	if present, _ := c.Invalidate(0); present {
		t.Fatal("invalidate of absent block reported it present")
	}
	c.Read(0)
	if present, v := c.Invalidate(0); !present || v.BlockAddr != 0 {
		t.Fatalf("invalidate = %v, %+v", present, v)
	}
	if c.Contains(0) {
		t.Fatal("block present after invalidate")
	}
}

func TestResetClearsAll(t *testing.T) {
	c := mustCache(t, base(64, 4, 2))
	for i := uint64(0); i < 64; i += 4 {
		c.Read(i)
		c.Write(i)
	}
	c.Reset()
	if c.ValidLines() != 0 || c.DirtyLines() != 0 {
		t.Fatal("reset left lines valid or dirty")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExtendedAddressesPIDTag(t *testing.T) {
	// Virtual cache: same address, different PID extension must not hit.
	c := mustCache(t, base(1024, 4, 1))
	a := uint64(100)
	b := uint64(1)<<32 | 100
	c.Read(a)
	if c.Read(b).Hit {
		t.Fatal("different PID hit the same line")
	}
	// b displaced a: the two extended addresses index the same set, so
	// re-reading a must miss again (inter-process conflict).
	if c.Read(a).Hit {
		t.Fatal("expected inter-process conflict eviction")
	}
}

// TestInvariantsProperty drives random access sequences through random
// configurations and checks the structural invariants throughout.
func TestInvariantsProperty(t *testing.T) {
	f := func(sizeSel, blockSel, assocSel, polSel uint8, seed uint64, ops []uint16) bool {
		sizes := []int{64, 256, 1024}
		blocks := []int{2, 4, 16}
		assocs := []int{1, 2, 4}
		cfg := Config{
			SizeWords:     sizes[int(sizeSel)%len(sizes)],
			BlockWords:    blocks[int(blockSel)%len(blocks)],
			Assoc:         assocs[int(assocSel)%len(assocs)],
			Replacement:   Replacement(polSel % 3),
			WritePolicy:   WritePolicy(polSel / 3 % 2),
			WriteAllocate: polSel%2 == 0,
			Seed:          seed,
		}
		c, err := New(cfg)
		if err != nil {
			return false
		}
		for i, op := range ops {
			addr := uint64(op % 2048)
			if op%3 == 0 {
				c.Write(addr)
			} else {
				c.Read(addr)
			}
			if i%16 == 0 {
				if err := c.CheckInvariants(); err != nil {
					t.Logf("invariant violated: %v (cfg %v)", err, cfg)
					return false
				}
			}
		}
		return c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestLRUStackInclusion checks the classical stack property of fully
// associative LRU: a larger cache never misses more than a smaller one on
// the same reference string.
func TestLRUStackInclusion(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	addrs := make([]uint64, 6000)
	for i := range addrs {
		addrs[i] = uint64(rng.IntN(2048))
	}
	missesFor := func(sizeWords int) int {
		c := mustCache(t, base(sizeWords, 4, sizeWords/4)) // fully associative
		misses := 0
		for _, a := range addrs {
			if !c.Read(a).Hit {
				misses++
			}
		}
		return misses
	}
	prev := missesFor(64)
	for _, size := range []int{128, 256, 512, 1024} {
		m := missesFor(size)
		if m > prev {
			t.Fatalf("LRU stack inclusion violated: %d words missed %d, smaller cache missed %d",
				size, m, prev)
		}
		prev = m
	}
}

// TestSequentialMissCount: a block-aligned sequential scan misses exactly
// once per block.
func TestSequentialMissCount(t *testing.T) {
	c := mustCache(t, base(1024, 8, 1))
	misses := 0
	for a := uint64(0); a < 4096; a++ {
		if !c.Read(a).Hit {
			misses++
		}
	}
	if misses != 4096/8 {
		t.Fatalf("sequential scan misses = %d, want %d", misses, 4096/8)
	}
}

// TestOutcomeMatchesResult checks each access's reported outcome against
// the set it touched, across every replacement policy, write policy,
// allocation policy and sub-block geometry: Displaced and Victim must
// describe exactly the valid line that left the set, read with SetState
// before and after the access. It also pins Result and Writeback to at most
// four fields and 32 bytes, the size the compiler returns in registers;
// past it every access would build its result in memory.
func TestOutcomeMatchesResult(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(Result{}), reflect.TypeOf(Writeback{})} {
		if typ.NumField() > 4 || typ.Size() > 32 {
			t.Fatalf("%v has %d fields in %d bytes, want at most 4 fields and 32 bytes", typ, typ.NumField(), typ.Size())
		}
	}
	for _, rep := range []Replacement{Random, LRU, FIFO} {
		for _, wp := range []WritePolicy{WriteBack, WriteThrough} {
			for _, alloc := range []bool{false, true} {
				for _, geo := range []struct{ assoc, block, fetch int }{{1, 4, 0}, {2, 8, 0}, {8, 4, 0}, {1, 16, 4}, {4, 32, 8}} {
					cfg := Config{SizeWords: 512, BlockWords: geo.block, Assoc: geo.assoc, FetchWords: geo.fetch,
						Replacement: rep, WritePolicy: wp, WriteAllocate: alloc, Seed: 3}
					c := MustNew(cfg)
					rng := rand.New(rand.NewPCG(uint64(geo.assoc), uint64(geo.block)))
					for i := 0; i < 20000; i++ {
						addr := uint64(rng.IntN(4096)) | uint64(rng.IntN(2))<<32
						set := int(addr/uint64(cfg.BlockWords)) & (cfg.Sets() - 1)
						before := c.SetState(set)
						var r Result
						if rng.IntN(3) == 0 {
							r = c.Write(addr)
						} else {
							r = c.Read(addr)
						}
						after := c.SetState(set)
						var left *LineState
						for w := range before {
							if before[w].Valid && (!after[w].Valid || after[w].Tag != before[w].Tag) {
								left = &before[w]
							}
						}
						switch {
						case r.Hit && r.Allocated, r.Displaced && !r.Allocated:
							t.Fatalf("%v access %d: inconsistent result %+v", cfg, i, r)
						case left == nil:
							if r.Displaced || r.Victim != (Writeback{}) {
								t.Fatalf("%v access %d: %+v reports a victim, but no line left the set", cfg, i, r)
							}
						case !r.Displaced || r.Victim.BlockAddr != left.Tag*uint64(cfg.BlockWords) ||
							r.Victim.Dirty() != left.Dirty || (r.Victim.DirtyWords > 0) != left.Dirty:
							t.Fatalf("%v access %d: %+v, but line %+v left the set", cfg, i, r, *left)
						}
					}
				}
			}
		}
	}
}

// TestFIFOWideSet: the FIFO pointer advances past way 65,535 of a set. The
// full 2^17-way set is seeded directly; filling it through Read would scan
// the set once per fill.
func TestFIFOWideSet(t *testing.T) {
	const ways = 1 << 17
	c := mustCache(t, Config{SizeWords: ways, BlockWords: 1, Assoc: ways, Replacement: FIFO})
	for w := range c.valid {
		c.tags[w] = uint64(w)
		c.valid[w] = true
	}
	c.fifo[0] = 1<<16 - 1
	for i, want := range []uint64{1<<16 - 1, 1 << 16} {
		if r := c.Read(ways + uint64(i)); !r.Displaced || r.Victim.BlockAddr != want {
			t.Fatalf("replacement %d evicted %+v, want block %d", i, r, want)
		}
	}
}
