package mem

import "testing"

// benchUnit is main memory at the paper's base timing (40 ns cycle).
func benchUnit() *Unit { return NewUnit(DefaultConfig().MustQuantize(40)) }

// sinkCycle keeps the benchmarked results live.
var sinkCycle int64

// BenchmarkStartFill times one four-word block fill. Requests arrive every
// eight cycles, faster than a fill and its recovery (thirteen cycles), so
// most wait for the unit as well.
func BenchmarkStartFill(b *testing.B) {
	u := benchUnit()
	transfer := u.Timing.TransferCycles(4)
	var now, last int64
	for i := 0; i < b.N; i++ {
		last, _ = u.StartFill(now, transfer, 0)
		now += 8
	}
	sinkCycle = last
}

// BenchmarkStartWrite times one single-word write; as for StartFill,
// requests arrive faster than the unit retires them.
func BenchmarkStartWrite(b *testing.B) {
	u := benchUnit()
	var now, last int64
	for i := 0; i < b.N; i++ {
		last = u.StartWrite(now, 1)
		now += 4
	}
	sinkCycle = last
}
