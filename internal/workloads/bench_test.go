package workloads

import "testing"

// BenchmarkClusterWorkload times one run of each workload on a fresh
// 4-slave environment at test scale: data generation, the real map and
// reduce functions, the shuffle and the event engine together. Run with
//
//	go test -run xxx -bench ClusterWorkload ./internal/workloads
func BenchmarkClusterWorkload(b *testing.B) {
	for _, w := range All() {
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := w.Run(NewEnv(4, testScale, 12345)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
