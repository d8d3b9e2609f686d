package runner

import (
	"context"
	"testing"
	"time"
)

// BenchmarkNoopCell times the runner's own per-cell cost: a sweep of
// cells that do no work, on two workers, with no retries, deadlines or
// checkpoint. It reports µs per cell.
func BenchmarkNoopCell(b *testing.B) {
	const cells = 1000
	sweep := make([]Cell[int], cells)
	for i := range sweep {
		sweep[i] = Cell[int]{Run: func(context.Context) (int, error) { return 1, nil }}
	}
	for i := 0; i < b.N; i++ {
		if _, err := Values(Run(context.Background(), sweep, Options{Workers: 2})); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed())/float64(time.Microsecond)/float64(b.N)/cells, "us/cell")
}
