package service

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

// BenchmarkJournalSubmitDone times one job's journal round trip: the
// submit entry and the terminal done entry, each encoded, framed,
// appended, fsynced and read back before it is acknowledged. It reports µs
// per job (two acks).
func BenchmarkJournalSubmitDone(b *testing.B) {
	j, err := OpenJournal(filepath.Join(b.TempDir(), JournalName), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	req := GridRequest{Workloads: []string{"mu3"}, Scale: 0.05, SizesKB: []int{4, 8, 16, 32}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("job-%d", i)
		if err := j.Submit(id, "", "", req); err != nil {
			b.Fatal(err)
		}
		if err := j.Done(id); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed())/float64(time.Microsecond)/float64(b.N), "us/job")
}
