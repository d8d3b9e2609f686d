package trace_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// benchTrace encodes one generated mu3 trace at scale 0.05 (cachesimd's
// default request scale) with write and returns the bytes and the
// trace's reference count.
func benchTrace(b *testing.B, write func(io.Writer, *trace.Trace) error) ([]byte, int) {
	b.Helper()
	spec, err := workload.ByName("mu3")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := spec.Generate(0.05)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := write(&buf, tr); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), tr.Len()
}

// benchDecode times decoding the encoded trace, reporting ns per
// reference: the trace-file layer under cachesim -trace.
func benchDecode(b *testing.B, data []byte, refs int, read func(io.Reader) (*trace.Trace, error)) {
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := read(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if tr.Len() != refs {
			b.Fatalf("decoded %d refs, want %d", tr.Len(), refs)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(refs), "ns/ref")
}

// BenchmarkReadBinary decodes the binary container format.
func BenchmarkReadBinary(b *testing.B) {
	data, refs := benchTrace(b, trace.WriteBinary)
	benchDecode(b, data, refs, trace.ReadBinary)
}

// BenchmarkReadDin decodes the Dinero-style text format.
func BenchmarkReadDin(b *testing.B) {
	data, refs := benchTrace(b, trace.WriteDin)
	benchDecode(b, data, refs, func(r io.Reader) (*trace.Trace, error) { return trace.ReadDin(r, "mu3") })
}
