package writebuf

import (
	"testing"

	"repro/internal/mem"
)

// benchBuffer is a depth-4 buffer, the paper's, draining into main memory
// at the base timing (40 ns cycle).
func benchBuffer() *Buffer {
	return MustNew(4, &sink{u: mem.NewUnit(mem.DefaultConfig().MustQuantize(40))})
}

// BenchmarkEnqueue times one single-word store entering the buffer. Stores
// arrive every three cycles, faster than memory retires them (a write keeps
// it busy for eight), so the buffer fills and most enqueues first wait for
// the head entry to start.
func BenchmarkEnqueue(b *testing.B) {
	buf := benchBuffer()
	var now int64
	for i := 0; i < b.N; i++ {
		now = buf.Enqueue(now, uint64(i)*4, 1, now+2) + 3
	}
}

// BenchmarkDrain times filling the buffer with four writes and then
// draining all four in the background; ns/write is the cost per write of
// the round.
func BenchmarkDrain(b *testing.B) {
	buf := benchBuffer()
	var now int64
	for i := 0; i < b.N; i++ {
		for k := uint64(0); k < 4; k++ {
			buf.Enqueue(now, k*4, 1, now)
		}
		now += 1000
		buf.Drain(now)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(4*b.N), "ns/write")
}

// BenchmarkFlushMatching times a read checked against a full buffer: miss,
// the common case, scans the four entries and starts none; hit matches the
// last entry, so all four start ahead of the read (and are then queued
// again for the next iteration).
func BenchmarkFlushMatching(b *testing.B) {
	b.Run("miss", func(b *testing.B) {
		buf := benchBuffer()
		for k := uint64(0); k < 4; k++ {
			buf.Enqueue(0, k*4, 1, 0)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if buf.FlushMatching(1, 1<<20, 4) {
				b.Fatal("unexpected match")
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		buf := benchBuffer()
		var now int64
		for i := 0; i < b.N; i++ {
			for k := uint64(0); k < 4; k++ {
				buf.Enqueue(now, k*4, 1, now)
			}
			if !buf.FlushMatching(now, 12, 4) {
				b.Fatal("no match")
			}
			now += 1000
		}
	})
}
