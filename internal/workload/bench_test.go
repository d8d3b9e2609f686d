package workload

import "testing"

// benchScale is the scale the generation benchmark runs at: cachesimd's
// default request scale (service.DefaultScale), where a job's cells spend
// the largest share of their time synthesizing the trace.
const benchScale = 0.05

// BenchmarkGenerate times trace synthesis for every Table 1 workload,
// reporting ns per generated reference. It is the trace-generation layer
// under the behavioural pass and the service's cells.
func BenchmarkGenerate(b *testing.B) {
	for _, spec := range Catalog {
		b.Run(spec.Name, func(b *testing.B) {
			refs := 0
			for i := 0; i < b.N; i++ {
				tr, err := spec.Generate(benchScale)
				if err != nil {
					b.Fatal(err)
				}
				refs = tr.Len()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(refs), "ns/ref")
		})
	}
}
