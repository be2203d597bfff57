package main

import (
	"runtime"
	"sync"
	"time"
)

// triadArrayMB is the size of each of the triad's three arrays: the cap
// the benchmark's own host probe puts on its arrays (four times the
// last-level cache, 32 to 128 MiB), so the two numbers agree on any box
// whose cache reaches 32 MiB.
const triadArrayMB = 128

// streamTriad measures a[i] = b[i] + s*c[i] over three float64 arrays of
// arrayBytes each, split over workers goroutines, and returns the best
// of passes passes in GB/s (24 bytes moved per element, write-allocate
// traffic not counted — the STREAM convention). It is bench/host.go's
// probe; bench is a module of its own, so the loop is copied.
func streamTriad(arrayBytes int64, workers, passes int) float64 {
	n := int(arrayBytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	if workers < 1 {
		workers = 1
	}
	best := 0.0
	for p := 0; p < passes; p++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			wg.Add(1)
			go func(a, b, c []float64) {
				defer wg.Done()
				const s = 3.0
				for i := range a {
					a[i] = b[i] + s*c[i]
				}
			}(a[lo:hi], b[lo:hi], c[lo:hi])
		}
		wg.Wait()
		if gbs := float64(n) * 24 / time.Since(t0).Seconds() / 1e9; gbs > best {
			best = gbs
		}
	}
	runtime.KeepAlive(a)
	return best
}
