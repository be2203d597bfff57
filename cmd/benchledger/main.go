// Command benchledger condenses benchmark result files — suite ledgers
// (bench/out/<commit>_<n>c.json) or per-run detail files
// (bench/out/detail_<workload>.json), pooled per workload, refused unless
// correct — into a root-level BENCH_<pr>_<cores>c.json: the median and
// quartiles of the four bounded end-to-end metrics, the commit, the host
// benchledger runs on (run it where the benchmark ran: Go version, core
// counts, CPU model, the avx2/avx512f flags, whether a PMU is visible and
// a STREAM-triad bandwidth)
// and, with -base, the base commit's runs of the same parent/change
// pairing.
//
//	benchledger -commit NEW [-base-commit OLD -base 'old/*.json'] -o BENCH_24_2c.json 'new/*.json'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// bounded lists the end-to-end metrics BENCHMARK.json bounds.
var bounded = []string{"setup_s", "step_mlups", "op_ms_p50", "peak_rss_mb"}

// stat is one metric of one workload over the pooled runs.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// side is one commit's condensed runs; benchFile is the output.
type side struct {
	Commit    string                     `json:"commit"`
	Workloads map[string]map[string]stat `json:"workloads"`
}
type benchFile struct {
	side
	Host map[string]any `json:"host"`
	Base *side          `json:"base,omitempty"`
}

func main() {
	commit := flag.String("commit", "", "commit the runs were taken at (required)")
	out := flag.String("o", "", "output file (required)")
	baseCommit := flag.String("base-commit", "", "commit of the -base runs")
	base := flag.String("base", "", "comma-separated globs of the base commit's result files")
	flag.Parse()
	if *commit == "" || *out == "" || flag.NArg() == 0 || (*base != "") != (*baseCommit != "") {
		fmt.Fprintln(os.Stderr, "usage: benchledger -commit C [-base-commit C0 -base GLOBS] -o FILE GLOB...")
		os.Exit(2)
	}
	bf := benchFile{Host: measureHost(os.DirFS("/"), triadArrayMB<<20)}
	var err error
	if bf.side, err = condense(*commit, flag.Args()); err == nil && *base != "" {
		bf.Base = new(side)
		*bf.Base, err = condense(*baseCommit, strings.Split(*base, ","))
	}
	if err == nil {
		blob, _ := json.MarshalIndent(bf, "", "  ")
		err = os.WriteFile(*out, append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchledger:", err)
		os.Exit(1)
	}
}

// measureHost returns hostFacts(root) with the runtime's view of the
// machine and a STREAM triad over arrays of triadBytes: the memory
// bandwidth that bounds the bulk-skipping workloads, which a box of other
// bandwidth scales differently from the kernels.
func measureHost(root fs.FS, triadBytes int64) map[string]any {
	h := hostFacts(root)
	h["nproc"], h["gomaxprocs"] = runtime.NumCPU(), runtime.GOMAXPROCS(0)
	h["go_version"], h["goos"], h["goarch"] = runtime.Version(), runtime.GOOS, runtime.GOARCH
	h["stream_triad_gbs"] = streamTriad(triadBytes, runtime.GOMAXPROCS(0), 3)
	h["stream_array_mb"] = float64(triadBytes) / (1 << 20)
	return h
}

// isaFlags are the /proc/cpuinfo flags recorded: the vector widths a
// kernel timing depends on.
var isaFlags = []string{"avx2", "avx512f"}

// hostFacts reads what a timing depends on from the root file system
// root: the CPU model and the isaFlags from proc/cpuinfo (first CPU;
// omitted where the file is missing, as off Linux), and whether a PMU is
// visible as sys/bus/event_source/devices/cpu (false in most containers and
// VMs, where hardware counters cannot attribute a change).
func hostFacts(root fs.FS) map[string]any {
	h := map[string]any{}
	if blob, err := fs.ReadFile(root, "proc/cpuinfo"); err == nil {
		var flags []string
		for _, line := range strings.Split(string(blob), "\n") {
			key, val, ok := strings.Cut(line, ":")
			if !ok {
				continue
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			if key == "model name" && h["cpu_model"] == nil {
				h["cpu_model"] = val
			}
			if key == "flags" && flags == nil {
				flags = strings.Fields(val)
			}
		}
		for _, f := range isaFlags {
			h[f] = slices.Contains(flags, f)
		}
	}
	_, err := fs.Stat(root, "sys/bus/event_source/devices/cpu")
	h["pmu"] = err == nil
	return h
}

// condense reads every file the globs match and reduces the pooled
// samples of the bounded metrics per workload.
func condense(commit string, globs []string) (side, error) {
	samples := map[string]map[string][]float64{}
	for _, g := range globs {
		paths, err := filepath.Glob(strings.TrimSpace(g))
		if err != nil || len(paths) == 0 {
			return side{}, fmt.Errorf("%q matches no file", g)
		}
		for _, p := range paths {
			if err := readResult(p, samples); err != nil {
				return side{}, fmt.Errorf("%s: %w", p, err)
			}
		}
	}
	s := side{Commit: commit, Workloads: map[string]map[string]stat{}}
	for w, metrics := range samples {
		s.Workloads[w] = map[string]stat{}
		for _, m := range bounded {
			if xs := metrics[m]; len(xs) > 0 {
				s.Workloads[w][m] = summarize(xs)
			}
		}
	}
	return s, nil
}

// readResult adds the samples of one suite ledger or detail file.
func readResult(path string, samples map[string]map[string][]float64) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var in struct {
		Correct  bool                            `json:"correct"`
		Samples  map[string]map[string][]float64 `json:"samples"`
		Workload string                          `json:"workload"`
		EndToEnd map[string]struct {
			Value float64 `json:"value"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(blob, &in); err != nil || !in.Correct {
		return fmt.Errorf("not a correct benchmark result (%v)", err)
	}
	if in.Workload != "" {
		in.Samples = map[string]map[string][]float64{in.Workload: {}}
		for m, v := range in.EndToEnd {
			in.Samples[in.Workload][m] = []float64{v.Value}
		}
	}
	for w, metrics := range in.Samples {
		if samples[w] == nil {
			samples[w] = map[string][]float64{}
		}
		for m, xs := range metrics {
			samples[w][m] = append(samples[w][m], xs...)
		}
	}
	return nil
}

// summarize returns the median (interpolated between the closest ranks)
// and the quartiles of Python's statistics.quantiles(xs, n=4) (the
// exclusive method) — the rules bench states its spreads and verdicts in.
func summarize(xs []float64) stat {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	st := stat{Median: s[(n-1)/2] + 0.5*(s[n/2]-s[(n-1)/2]), Q1: s[0], Q3: s[0], N: n}
	if n > 1 {
		q := func(i int) float64 {
			j := min(max(i*(n+1)/4, 1), n-1)
			delta := float64(i*(n+1) - j*4)
			return (s[j-1]*(4-delta) + s[j]*delta) / 4
		}
		st.Q1, st.Q3 = q(1), q(3)
	}
	return st
}
