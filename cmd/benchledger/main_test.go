package main

import (
	"maps"
	"os"
	"path/filepath"
	"testing"
	"testing/fstest"
)

func writeFile(t *testing.T, dir, name, body string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0].
	for _, c := range []struct {
		xs   []float64
		want stat
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, stat{Median: 5.5, Q1: 2.75, Q3: 8.25, N: 10}},
		{[]float64{4, 1, 3}, stat{Median: 3, Q1: 1, Q3: 4, N: 3}},
		{[]float64{7}, stat{Median: 7, Q1: 7, Q3: 7, N: 1}},
	} {
		if got := summarize(c.xs); got != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
}

func TestCondensePoolsSuiteAndDetailFiles(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "abc_2c.json", `{"correct": true, "samples": {
		"sparse_column": {"step_mlups": [5, 6], "op_ms_p50": [40, 50], "bench.spans": [9]},
		"halo_tcp": {"setup_s": [0.1]}}}`)
	writeFile(t, dir, "detail_a.json", `{"correct": true, "workload": "sparse_column",
		"end_to_end": {"step_mlups": {"value": 7, "unit": "MLUP/s"}, "peak_rss_mb": {"value": 60}}}`)
	s, err := condense("abc", []string{filepath.Join(dir, "abc_*.json"), filepath.Join(dir, "detail_*.json")})
	if err != nil {
		t.Fatal(err)
	}
	sc := s.Workloads["sparse_column"]
	if got := sc["step_mlups"]; got.N != 3 || got.Median != 6 {
		t.Errorf("step_mlups pooled to %+v, want n=3 median 6", got)
	}
	if got := sc["peak_rss_mb"]; got.N != 1 || got.Median != 60 {
		t.Errorf("peak_rss_mb = %+v", got)
	}
	if _, ok := sc["bench.spans"]; ok {
		t.Error("an unbounded metric made it into the ledger")
	}
	if got := s.Workloads["halo_tcp"]["setup_s"]; got.Median != 0.1 {
		t.Errorf("halo_tcp setup_s = %+v", got)
	}
}

func TestCondenseRefuses(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "bad.json", `{"correct": false, "workload": "io_cycle", "end_to_end": {}}`)
	if _, err := condense("x", []string{filepath.Join(dir, "bad.json")}); err == nil {
		t.Error("an incorrect result was accepted")
	}
	if _, err := condense("x", []string{filepath.Join(dir, "none_*.json")}); err == nil {
		t.Error("a glob matching nothing was accepted")
	}
}

func TestHostFacts(t *testing.T) {
	cpuinfo := "processor\t: 0\nmodel name\t: Test CPU @ 2.0GHz\nflags\t\t: fpu sse2 avx avx2 fma\n\n" +
		"processor\t: 1\nmodel name\t: Other CPU\nflags\t\t: fpu avx512f\n"
	for _, c := range []struct {
		name string
		root fstest.MapFS
		want map[string]any
	}{
		{"avx2 and a PMU", fstest.MapFS{
			"proc/cpuinfo":                            {Data: []byte(cpuinfo)},
			"sys/bus/event_source/devices/cpu/type":   {Data: []byte("4\n")},
			"sys/bus/event_source/devices/software/x": {},
		}, map[string]any{"cpu_model": "Test CPU @ 2.0GHz", "avx2": true, "avx512f": false, "pmu": true}},
		{"avx512f, no PMU", fstest.MapFS{
			"proc/cpuinfo": {Data: []byte("model name : Wide CPU\nflags : avx2 avx512f avx512bw\n")},
			"sys/bus/event_source/devices/software/type": {Data: []byte("1\n")},
		}, map[string]any{"cpu_model": "Wide CPU", "avx2": true, "avx512f": true, "pmu": false}},
		{"no cpuinfo", fstest.MapFS{}, map[string]any{"pmu": false}},
	} {
		if got := hostFacts(c.root); !maps.Equal(got, c.want) {
			t.Errorf("%s: hostFacts = %v, want %v", c.name, got, c.want)
		}
	}
}

// The host block carries the runtime facts and a positive triad
// bandwidth over arrays of the size asked for.
func TestMeasureHostRecordsTriad(t *testing.T) {
	h := measureHost(fstest.MapFS{}, 1<<20)
	if gbs, ok := h["stream_triad_gbs"].(float64); !ok || !(gbs > 0) {
		t.Errorf("stream_triad_gbs = %v, want a positive bandwidth", h["stream_triad_gbs"])
	}
	if mb := h["stream_array_mb"]; mb != 1.0 {
		t.Errorf("stream_array_mb = %v, want 1", mb)
	}
	for _, k := range []string{"nproc", "gomaxprocs", "go_version", "goos", "goarch", "pmu"} {
		if _, ok := h[k]; !ok {
			t.Errorf("host lacks %s", k)
		}
	}
}

func TestStreamTriadAnyWorkerCount(t *testing.T) {
	for _, workers := range []int{0, 1, 3} {
		if gbs := streamTriad(3<<10, workers, 2); !(gbs > 0) {
			t.Errorf("%d workers: %v GB/s", workers, gbs)
		}
	}
}
