package cache

import (
	"math/rand/v2"
	"testing"
)

func subCfg(size, block, fetch int) Config {
	return Config{SizeWords: size, BlockWords: block, Assoc: 1, FetchWords: fetch,
		Replacement: LRU, WritePolicy: WriteBack, Seed: 3}
}

func TestSubBlockValidation(t *testing.T) {
	good := []Config{
		subCfg(1024, 16, 4),
		subCfg(1024, 16, 16), // fetch == block: whole-block mode
		subCfg(1024, 16, 1),
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v rejected: %v", cfg, err)
		}
	}
	bad := []Config{
		subCfg(1024, 16, 3),  // not a power of two
		subCfg(1024, 16, 32), // fetch > block
		subCfg(1024, 16, -4),
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%v accepted", cfg)
		}
	}
	if subCfg(1024, 16, 4).EffectiveFetchWords() != 4 {
		t.Error("effective fetch wrong")
	}
	if subCfg(1024, 16, 0).EffectiveFetchWords() != 16 {
		t.Error("default fetch wrong")
	}
	if !subCfg(1024, 16, 4).SubBlocked() || subCfg(1024, 16, 16).SubBlocked() {
		t.Error("SubBlocked wrong")
	}
}

func TestSubBlockReadFillsOnlySubBlock(t *testing.T) {
	c := mustCache(t, subCfg(1024, 16, 4))
	r := c.Read(0)
	if r.Hit || !r.Allocated {
		t.Fatalf("first read: %+v", r)
	}
	// Same sub-block: hit.
	if !c.Read(3).Hit {
		t.Fatal("same sub-block missed")
	}
	// Same block, different sub-block: tag matches but the words are not
	// resident — a sub-block miss with no victim.
	r = c.Read(4)
	if r.Hit {
		t.Fatal("unfetched sub-block hit")
	}
	if !r.Allocated || r.Displaced {
		t.Fatalf("sub-block miss should allocate without a victim: %+v", r)
	}
	// Now both sub-blocks are resident.
	if !c.Read(0).Hit || !c.Read(7).Hit {
		t.Fatal("sub-blocks lost")
	}
	// The last sub-block of the block is still absent.
	if c.Read(15).Hit {
		t.Fatal("never-fetched sub-block hit")
	}
}

func TestSubBlockEvictionClearsValidity(t *testing.T) {
	c := mustCache(t, subCfg(64, 16, 4)) // 4 blocks, 16W each
	c.Read(0)
	r := c.Read(64) // same index in a 4-set cache of 16W blocks
	if r.Hit || !r.Displaced {
		t.Fatalf("conflict expected: %+v", r)
	}
	// The original line is gone entirely, including its valid bits.
	if c.Read(0).Hit {
		t.Fatal("evicted sub-block still valid")
	}
}

func TestSubBlockWriteSemantics(t *testing.T) {
	c := mustCache(t, subCfg(1024, 16, 4))
	c.Read(0) // sub-block 0..3 resident
	// Store into the resident sub-block: hit, dirties the word.
	if r := c.Write(2); !r.Hit {
		t.Fatalf("store to resident sub-block missed: %+v", r)
	}
	// Store into a non-resident sub-block of the same line: with
	// no-write-allocate the word passes through.
	r := c.Write(8)
	if r.Hit || r.Allocated {
		t.Fatalf("store to absent sub-block should pass through: %+v", r)
	}
	if c.Read(8).Hit {
		t.Fatal("pass-through store materialized the sub-block")
	}
}

func TestSubBlockWriteAllocate(t *testing.T) {
	cfg := subCfg(1024, 16, 4)
	cfg.WriteAllocate = true
	c := mustCache(t, cfg)
	c.Read(0)
	r := c.Write(8) // absent sub-block, allocate it
	if r.Hit || !r.Allocated || r.Displaced {
		t.Fatalf("sub-block write-allocate: %+v", r)
	}
	if !c.Read(8).Hit {
		t.Fatal("write-allocated sub-block absent")
	}
}

func TestSubBlockWritebackWords(t *testing.T) {
	c := mustCache(t, subCfg(64, 16, 4))
	c.Read(0)       // sub-block 0 resident
	c.Read(4)       // sub-block 1 resident
	c.Write(1)      // dirty sub-block 0
	c.Write(2)      // second dirty word, same sub-block
	r := c.Read(64) // evict
	if !r.Victim.Dirty() {
		t.Fatal("victim clean")
	}
	if r.Victim.DirtyWords != 2 {
		t.Fatalf("dirty words = %d, want 2", r.Victim.DirtyWords)
	}
	// Only the one dirty sub-block (4 words) writes back, not the whole
	// 16-word block.
	if r.Victim.Words != 4 {
		t.Fatalf("writeback words = %d, want 4", r.Victim.Words)
	}
}

func TestWholeBlockWritebackWords(t *testing.T) {
	c := mustCache(t, base(64, 16, 1))
	c.Read(0)
	c.Write(1)
	r := c.Read(256)
	if r.Victim.Words != 16 {
		t.Fatalf("whole-block writeback = %d words, want 16", r.Victim.Words)
	}
}

func TestSubBlockInvariants(t *testing.T) {
	cfg := subCfg(256, 16, 4)
	cfg.WriteAllocate = true
	c := mustCache(t, cfg)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.IntN(2048))
		if rng.IntN(3) == 0 {
			c.Write(addr)
		} else {
			c.Read(addr)
		}
		if i%512 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSubBlockMoreMissesLessTraffic: versus whole-block fetch of the same
// geometry, sub-block placement takes more misses but moves fewer words —
// the fundamental fetch-size tradeoff.
func TestSubBlockMoreMissesLessTraffic(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	addrs := make([]uint64, 20000)
	for i := range addrs {
		addrs[i] = uint64(rng.IntN(1 << 13))
	}
	run := func(fetch int) (misses, words int) {
		c := mustCache(t, subCfg(1024, 16, fetch))
		for _, a := range addrs {
			if !c.Read(a).Hit {
				misses++
				words += c.Config().EffectiveFetchWords()
			}
		}
		return
	}
	wbMiss, wbWords := run(16)
	sbMiss, sbWords := run(4)
	if sbMiss <= wbMiss {
		t.Fatalf("sub-block misses %d not above whole-block %d", sbMiss, wbMiss)
	}
	if sbWords >= wbWords {
		t.Fatalf("sub-block traffic %d not below whole-block %d", sbWords, wbWords)
	}
}
