package system

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/writebuf"
)

// Downstream is the level below the first-level caches: main memory, or a
// second-level cache in front of it. It also serves as the sink of the L1
// write buffer.
type Downstream interface {
	// ReadBlock begins a block read no earlier than now. victimOutWords
	// is the size of a dirty victim leaving the requesting cache over a
	// one-word-per-cycle path starting at now; the fill cannot begin
	// until the victim is out. Returns the cycle the last word arrives
	// and the cycle the first word began transferring.
	ReadBlock(now int64, addr uint64, words, victimOutWords int) (dataAt, fillStart int64)
	writebuf.Sink
}

// memDown adapts the main memory unit to the Downstream interface.
type memDown struct {
	unit *mem.Unit
}

func (m *memDown) ReadBlock(now int64, addr uint64, words, victimOutWords int) (int64, int64) {
	return m.unit.StartReadBlocked(now, words, victimOutWords)
}

func (m *memDown) StartWrite(now int64, addr uint64, words int) int64 {
	return m.unit.StartWrite(now, words)
}

func (m *memDown) NextFree() int64 { return m.unit.FreeAt }

// cacheLevel is one level of the cache hierarchy below L1 (an L2, L3, …),
// with its own write buffer toward the next level. It is single-ported:
// concurrent requests from the sides above serialize on its busy state.
type cacheLevel struct {
	cache  *cache.Cache
	access int64 // tag+array access cycles
	buf    *writebuf.Buffer
	next   Downstream
	freeAt int64

	reads, readHits   int64
	writes, writeHits int64

	// serviceCycles accumulates request-to-data time across upward reads,
	// including everything nested below. The attribution recorder peels the
	// nested part off to get this level's own service share; nothing in the
	// simulated timing reads it back.
	serviceCycles int64
}

func newLevel(cfg *L2Config, next Downstream) (*cacheLevel, error) {
	c, err := cache.New(cfg.Cache)
	if err != nil {
		return nil, err
	}
	l := &cacheLevel{
		cache:  c,
		access: int64(cfg.AccessCycles),
		next:   next,
	}
	if l.buf, err = writebuf.New(cfg.WriteBufDepth, next); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *cacheLevel) NextFree() int64 { return l.freeAt }

// fetchOwnBlock brings addr's block in from the next level starting no
// earlier than start, handling this level's victim write back. Returns when
// the last word has arrived at this level.
func (l *cacheLevel) fetchOwnBlock(start int64, addr uint64, res cache.Result) int64 {
	bw := l.cache.Config().BlockWords
	blockAddr := addr &^ uint64(bw-1)
	l.buf.Drain(start)
	l.buf.FlushMatching(start, blockAddr, bw)
	victimOut := 0
	if res.Victim.Dirty() {
		victimOut = bw
	}
	dataAt, _ := l.next.ReadBlock(start, blockAddr, bw, victimOut)
	if victimOut > 0 {
		rel := l.buf.Enqueue(dataAt, res.Victim.BlockAddr, bw, dataAt)
		if rel > dataAt {
			dataAt = rel
		}
	}
	return dataAt
}

// ReadBlock services a miss from the level above: deliver `words` starting
// at addr across the one-word-per-cycle inter-level path.
func (l *cacheLevel) ReadBlock(now int64, addr uint64, words, victimOutWords int) (int64, int64) {
	start := now
	if l.freeAt > start {
		start = l.freeAt
	}
	l.reads++
	res := l.cache.Read(addr)
	ready := start + l.access
	if res.Hit {
		l.readHits++
	} else {
		ready = l.fetchOwnBlock(start+l.access, addr, res)
	}
	fillStart := ready
	if v := now + int64(victimOutWords); v > fillStart {
		fillStart = v
	}
	dataAt := fillStart + int64(words)
	l.freeAt = dataAt
	l.serviceCycles += dataAt - now
	return dataAt, fillStart
}

// StartWrite accepts a write back or store-through word from the level
// above. The writer is released after the address cycle and the transfer
// across the inter-level path; a write-allocate miss keeps this level busy
// fetching the enclosing block from below in the background.
func (l *cacheLevel) StartWrite(now int64, addr uint64, words int) int64 {
	start := now
	if l.freeAt > start {
		start = l.freeAt
	}
	l.writes++
	accepted := start + 1 + int64(words)
	busy := accepted

	cfg := l.cache.Config()
	hitAll := true
	forwarded := false
	for w := 0; w < words; w++ {
		res := l.cache.Write(addr + uint64(w))
		if res.Hit {
			continue
		}
		hitAll = false
		if res.Allocated {
			// Write-allocate: fetch the enclosing block from
			// memory; cache.Write already installed the line and
			// marked the word dirty.
			done := l.fetchOwnBlock(start+l.access, addr+uint64(w), res)
			if done > busy {
				busy = done
			}
		} else if !forwarded {
			// Miss without allocation: the whole write passes
			// through toward memory (enqueued once).
			l.buf.Drain(start)
			rel := l.buf.Enqueue(accepted, addr, words, accepted)
			if rel > busy {
				busy = rel
			}
			forwarded = true
		}
	}
	if cfg.WritePolicy == cache.WriteThrough && !forwarded {
		// A write-through L2 forwards every write regardless of hit.
		l.buf.Drain(start)
		rel := l.buf.Enqueue(accepted, addr, words, accepted)
		if rel > busy {
			busy = rel
		}
	}
	if hitAll {
		l.writeHits++
	}
	l.freeAt = busy
	return accepted
}
