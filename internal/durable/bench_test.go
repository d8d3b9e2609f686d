package durable

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// BenchmarkAppendAck times one durable acknowledgement: frame a
// journal-sized JSON record, append it to a temp file with one write and
// fsync it. It reports µs per ack; the fsync dominates, so the figure is
// the file system's.
func BenchmarkAppendAck(b *testing.B) {
	f, err := os.OpenFile(filepath.Join(b.TempDir(), "bench.ndjson"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	payload := []byte(`{"t":"submit","job":"j-000001","time":"2026-10-20T12:00:00Z","req":{"workloads":["mu3"],"scale":0.05,"sizes_kb":[4,8,16,32]}}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Write(Frame(payload)); err != nil {
			b.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed())/float64(time.Microsecond)/float64(b.N), "us/ack")
}
