package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// host.go — what the benchmark measures about the machine itself: peak
// resident memory of this process and a STREAM-triad bandwidth probe that
// gives the kernel roofline a measured roof (the paper does the same for
// SuperMUC, Hornet and JUQUEEN).

// peakRSSMB returns this process' peak resident set size (VmHWM) in MB,
// or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// llcBytes returns the size of the largest cache cpu0 reports in sysfs,
// or 0 when it cannot be read.
func llcBytes() int64 {
	files, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	var best int64
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(blob))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}

// triadArrayBytes picks the per-array size for the bandwidth probe: four
// times the last-level cache, as the STREAM rules ask, but at least 32 MiB
// and never more than maxMB — a cloud VM reports the whole socket's L3
// (hundreds of MiB) for two cores, and three arrays of four times that
// would neither fit a small box nor a run's time budget. Both sizes are
// reported, so a capped run is visible as such.
func triadArrayBytes(llc int64, maxMB int) int64 {
	b := 4 * llc
	if b < 32<<20 {
		b = 32 << 20
	}
	if limit := int64(maxMB) << 20; b > limit {
		b = limit
	}
	return b
}

// streamTriad measures a[i] = b[i] + s*c[i] over three float64 arrays of
// arrayBytes each, split over workers goroutines, and returns the best
// of passes passes in GB/s (24 bytes moved per element, write-allocate
// traffic not counted — the STREAM convention).
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
