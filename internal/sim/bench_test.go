package sim_test

import (
	"fmt"
	"testing"

	"cobra/internal/sim"
	"cobra/internal/simtest"
)

// BenchmarkRunPBSWSweep runs PB-SW at the bin sweep's first four
// points on a scale-14 DegreeCount-shaped app (16 Ki keys, 16 uniform
// updates per key, 4 B tuples, an 8 B edge streamed per update). The
// sweep is most of the Fig 10 campaign's host time; ns/update is the
// host cost per simulated update of one whole run.
func BenchmarkRunPBSWSweep(b *testing.B) {
	app, _ := simtest.CountApp(1<<14, 16<<14, 1)
	app.StreamBytes = 8
	for _, bins := range []int{16, 256, 4096, 16384} {
		b.Run(fmt.Sprintf("bins=%d", bins), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunPBSW(app, bins, sim.DefaultArch()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*app.NumUpdates), "ns/update")
		})
	}
}
