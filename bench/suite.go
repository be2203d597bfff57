package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// suite.go — the whole workload set from one command: every run is a
// fresh subprocess of this binary (so one workload's heap, goroutines and
// page cache state never reach the next), the results land in one ledger
// file, and two ledgers can be compared metric by metric.

// ledgerMeta is the machine and build the numbers were taken on.
type ledgerMeta struct {
	Commit     string  `json:"commit"`
	Date       string  `json:"date"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Order      string  `json:"order"`
	Sizes      sizes   `json:"sizes"`
}

// ledger is the result file: workload → metric → value. With several runs
// per workload, a metric's value is the median over the runs, n the run
// count and q1/q3 the quartiles over the runs — the run-to-run spread the
// bounds are judged against; Samples keeps every run's value so that two
// ledgers can be compared pair by pair.
type ledger struct {
	Meta      ledgerMeta                      `json:"meta"`
	Workloads map[string]map[string]Metric    `json:"workloads"`
	Samples   map[string]map[string][]float64 `json:"samples"`
	Correct   bool                            `json:"correct"`
}

type suiteOptions struct {
	seed    int64
	seconds float64
	trace   bool
	runs    int
	reverse bool
	quiet   bool
}

// gitCommit returns the short commit of the checkout the benchmark sits
// in, or "nogit" outside a repository (the driver's checkouts are not).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "nogit"
	}
	return strings.TrimSpace(string(out))
}

// gogc is the collector setting in force.
func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	prev := debug.SetGCPercent(100)
	debug.SetGCPercent(prev)
	return fmt.Sprint(prev)
}

// spawn runs one workload in a fresh subprocess of this binary and
// returns its detail record.
func spawn(o suiteOptions, name string, seed int64, trace bool) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(o.seconds)}
	if trace {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", name, err, out)
	}
	blob, err := os.ReadFile(filepath.Join(outDir, detailName(name, trace)))
	if err != nil {
		return nil, err
	}
	var res runResult
	if err := json.Unmarshal(blob, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// collect runs the whole set o.runs times and aggregates it into a ledger.
func collect(w io.Writer, o suiteOptions) (*ledger, error) {
	order := append([]workloadEntry(nil), workloads...)
	orderName := "forward"
	if o.reverse {
		orderName = "reverse"
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	led := &ledger{
		Meta: ledgerMeta{
			Commit: gitCommit(), Date: time.Now().UTC().Format(time.RFC3339),
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc(),
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			Seed: o.seed, Runs: o.runs, Seconds: o.seconds, Traced: o.trace, Order: orderName, Sizes: calibrated,
		},
		Workloads: map[string]map[string]Metric{},
		Samples:   map[string]map[string][]float64{},
		Correct:   true,
	}
	last := map[string]map[string]Metric{}
	add := func(name string, ms map[string]Metric) {
		if led.Samples[name] == nil {
			led.Samples[name] = map[string][]float64{}
			last[name] = map[string]Metric{}
		}
		for metric, m := range ms {
			led.Samples[name][metric] = append(led.Samples[name][metric], m.Value)
			last[name][metric] = m
		}
	}
	for r := 0; r < o.runs; r++ {
		for _, entry := range order {
			seed := o.seed + int64(r)
			res, err := spawn(o, entry.Name, seed, false)
			if err != nil {
				return nil, err
			}
			if !o.quiet {
				printHuman(w, res)
			}
			if !res.Correct {
				led.Correct = false
			}
			add(entry.Name, res.EndToEnd)
			add(entry.Name, res.Extras)
			if !o.trace {
				continue
			}
			traced, err := spawn(o, entry.Name, seed, true)
			if err != nil {
				return nil, err
			}
			if !o.quiet {
				printHuman(w, traced)
			}
			if !traced.Correct {
				led.Correct = false
			}
			add(entry.Name, traced.PerLayer)
			// Measured, not computed: what the traced run lost against the
			// untraced one of the same seed. Mostly run-to-run noise.
			if a, b := res.EndToEnd["step_mlups"].Value, traced.EndToEnd["step_mlups"].Value; a > 0 {
				add(entry.Name, map[string]Metric{"bench.trace_delta_frac": {Value: (a - b) / a, Unit: "ratio",
					Note: "(untraced - traced step_mlups) / untraced, one pair of runs"}})
			}
		}
	}
	for name, metrics := range led.Samples {
		led.Workloads[name] = map[string]Metric{}
		for metric, xs := range metrics {
			m := last[name][metric]
			if len(xs) > 1 {
				// Across runs: the median run, and the runs' quartiles.
				q1, q3 := quartiles(xs)
				m = clean(Metric{Value: median(xs), Unit: m.Unit, N: len(xs), Q1: q1, Q3: q3,
					Note: joinNote(m.Note, "median and quartiles over runs")})
			}
			led.Workloads[name][metric] = m
		}
	}
	return led, nil
}

// printSummary prints the end-to-end table of a ledger: one row per
// workload and metric, with the run-to-run spread when there are runs to
// take it from.
func printSummary(w io.Writer, led *ledger) {
	fmt.Fprintf(w, "\n== summary: commit %s, %d cpu, %s, seed %d, %d run(s) of %g s\n",
		led.Meta.Commit, led.Meta.NProc, led.Meta.GoVersion, led.Meta.Seed, led.Meta.Runs, led.Meta.Seconds)
	fmt.Fprintf(w, "%-18s %-12s %14s %-7s %5s %9s %7s\n", "workload", "metric", "value", "unit", "n", "spread", "bound")
	for _, entry := range workloads {
		for _, d := range endToEnd {
			m, ok := led.Workloads[entry.Name][d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-18s %-12s %14.6g %-7s %5d %9s %6.0f%%\n",
				entry.Name, d.Name, m.Value, m.Unit, m.N, spreadText(led.Samples[entry.Name][d.Name]), 100*d.Bound)
		}
		// Unbounded rows: the tail latency (too noisy for a bound) and the
		// two ratios that must be 0.
		for _, row := range [][2]string{{"op_ms_p90", "-"}, {"fail_frac", "0"}, {"mismatch_frac", "0"}} {
			if m, ok := led.Workloads[entry.Name][row[0]]; ok {
				fmt.Fprintf(w, "%-18s %-12s %14.6g %-7s %5d %9s %7s\n",
					entry.Name, row[0], m.Value, m.Unit, m.N, spreadText(led.Samples[entry.Name][row[0]]), row[1])
			}
		}
	}
}

// spreadText formats the run-to-run spread of xs, or "-" when there are
// not two runs to take it from (or the median is 0).
func spreadText(xs []float64) string {
	if sp := spread(xs); len(xs) >= 2 && !math.IsNaN(sp) {
		return fmt.Sprintf("%.2f%%", 100*sp)
	}
	return "-"
}

// ledgerName is the result file of a suite run.
func ledgerName(led *ledger) string {
	return fmt.Sprintf("%s_%dc.json", led.Meta.Commit, led.Meta.NProc)
}

// runSuite is `go run -C bench repro/bench`: every workload, a ledger file, and a
// non-zero exit when any output was wrong.
func runSuite(w io.Writer, o suiteOptions) int {
	if o.runs < 1 {
		o.runs = 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	led, err := collect(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	printSummary(w, led)
	path := filepath.Join(outDir, ledgerName(led))
	if err := writeJSONFile(path, led); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	if !led.Correct {
		fmt.Fprintln(w, "FAIL: a workload reported failed operations or mismatching results")
		return 1
	}
	return 0
}

// worsening returns how much b is worse than a as a share of a, given the
// metric's direction; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// selfCheck is the A/A test: the whole set twice, the second time in
// reverse workload order, every end-to-end metric's relative difference
// printed against its bound. It exits non-zero when a difference breaches
// the bound (or any output was wrong).
func selfCheck(w io.Writer, seed int64, seconds float64) int {
	o := suiteOptions{seed: seed, seconds: seconds, runs: 1, quiet: true}
	a, err := collect(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	o.reverse = true
	b, err := collect(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return reportSelfCheck(w, a, b)
}

func reportSelfCheck(w io.Writer, a, b *ledger) int {
	breaches := 0
	fmt.Fprintf(w, "== selfcheck: two sets of the same code, forward then reverse order\n")
	fmt.Fprintf(w, "%-18s %-12s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, entry := range workloads {
		for _, d := range endToEnd {
			va, vb := a.Workloads[entry.Name][d.Name].Value, b.Workloads[entry.Name][d.Name].Value
			diff := math.Abs(worsening(d, va, vb))
			mark := ""
			if diff > d.Bound {
				mark = "  BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-18s %-12s %14.6g %14.6g %8.2f%% %6.0f%%%s\n",
				entry.Name, d.Name, va, vb, 100*diff, 100*d.Bound, mark)
		}
	}
	for _, led := range []*ledger{a, b} {
		name := strings.TrimSuffix(ledgerName(led), ".json") + "_selfcheck_" + led.Meta.Order + ".json"
		if err := writeJSONFile(filepath.Join(outDir, name), led); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	switch {
	case !a.Correct || !b.Correct:
		fmt.Fprintln(w, "FAIL: a workload reported failed operations or mismatching results")
		return 1
	case breaches > 0:
		fmt.Fprintf(w, "FAIL: %d metric(s) differ by more than their bound between two runs of the same code\n", breaches)
		return 1
	}
	fmt.Fprintln(w, "ok: every end-to-end metric agrees within its bound")
	return 0
}

// loadLedgers reads a comma-separated list of ledger files and pools
// their per-run samples in order.
func loadLedgers(list string) (*ledger, error) {
	pooled := &ledger{Samples: map[string]map[string][]float64{}, Correct: true}
	for i, path := range strings.Split(list, ",") {
		blob, err := os.ReadFile(strings.TrimSpace(path))
		if err != nil {
			return nil, err
		}
		var led ledger
		if err := json.Unmarshal(blob, &led); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if i == 0 {
			pooled.Meta = led.Meta
		}
		pooled.Correct = pooled.Correct && led.Correct
		for name, metrics := range led.Samples {
			if pooled.Samples[name] == nil {
				pooled.Samples[name] = map[string][]float64{}
			}
			for metric, xs := range metrics {
				pooled.Samples[name][metric] = append(pooled.Samples[name][metric], xs...)
			}
		}
	}
	return pooled, nil
}

// minPairs is how many base/new pairs a gain claim needs.
const minPairs = 10

// verdict judges one metric on one workload from the base runs a and the
// new runs b (paired in order). See README.md, "Comparing two commits".
func verdict(d metricDef, a, b []float64) (delta float64, text string) {
	ma, mb := median(a), median(b)
	worse := worsening(d, ma, mb)
	delta = -worse // positive = better
	if len(a) < 2 || len(b) < 2 {
		if worse > d.Bound {
			return delta, "WORSE (one run each: no spread to judge by)"
		}
		return delta, "within bound (one run each)"
	}
	spreadA, spreadB := spread(a), spread(b)
	if spreadA > d.Bound || spreadB > d.Bound {
		return delta, fmt.Sprintf("unresolved (spread %.1f%%/%.1f%% exceeds the %.0f%% bound)", 100*spreadA, 100*spreadB, 100*d.Bound)
	}
	if worse > d.Bound {
		return delta, "REGRESSION"
	}
	pairs := len(a)
	if len(b) < pairs {
		pairs = len(b)
	}
	if pairs >= minPairs {
		wins := 0
		for i := 0; i < pairs; i++ {
			if worsening(d, a[i], b[i]) < 0 {
				wins++
			}
		}
		q1, q3 := quartiles(a)
		if float64(wins) >= 0.9*float64(pairs) && math.Abs(mb-ma) > math.Abs(q3-q1) {
			return delta, fmt.Sprintf("GAIN (%d/%d pairs, beyond the base IQR)", wins, pairs)
		}
		return delta, fmt.Sprintf("unchanged (%d/%d pairs won)", wins, pairs)
	}
	return delta, fmt.Sprintf("within bound (%d pair(s): too few to claim a gain)", pairs)
}

// compareFiles prints per-workload, per-metric deltas of b against the
// base a and returns non-zero when an end-to-end metric regressed.
func compareFiles(w io.Writer, listA, listB string) int {
	a, err := loadLedgers(listA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadLedgers(listB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return reportCompare(w, a, b)
}

func reportCompare(w io.Writer, a, b *ledger) int {
	fmt.Fprintf(w, "== compare: base %s (%d cpu) -> new %s (%d cpu)\n", a.Meta.Commit, a.Meta.NProc, b.Meta.Commit, b.Meta.NProc)
	if a.Meta.NProc != b.Meta.NProc || a.Meta.Sizes != b.Meta.Sizes || a.Meta.Seconds != b.Meta.Seconds {
		fmt.Fprintln(w, "warning: the two sides differ in cpu count, sizes or run length; the deltas mean little")
	}
	regressions := 0
	fmt.Fprintf(w, "%-18s %-12s %14s %14s %9s  %s\n", "workload", "metric", "base", "new", "delta", "verdict")
	for _, entry := range workloads {
		for _, d := range endToEnd {
			xa, xb := a.Samples[entry.Name][d.Name], b.Samples[entry.Name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			delta, text := verdict(d, xa, xb)
			if strings.HasPrefix(text, "REGRESSION") || strings.HasPrefix(text, "WORSE") {
				regressions++
			}
			fmt.Fprintf(w, "%-18s %-12s %14.6g %14.6g %+8.2f%%  %s\n",
				entry.Name, d.Name, median(xa), median(xb), 100*delta, text)
		}
	}
	// Everything else the two files share, without a verdict: no bound.
	fmt.Fprintf(w, "-- other metrics (no bound; delta of medians, base = first file)\n")
	for _, entry := range workloads {
		var names []string
		for name := range a.Samples[entry.Name] {
			if _, e2e := defOf(endToEnd, name); !e2e && len(b.Samples[entry.Name][name]) > 0 {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			ma, mb := median(a.Samples[entry.Name][name]), median(b.Samples[entry.Name][name])
			delta := "      -"
			if ma != 0 {
				delta = fmt.Sprintf("%+8.2f%%", 100*(mb-ma)/math.Abs(ma))
			}
			fmt.Fprintf(w, "%-18s %-34s %14.6g %14.6g %s\n", entry.Name, name, ma, mb, delta)
		}
	}
	if !a.Correct || !b.Correct {
		fmt.Fprintln(w, "FAIL: a side reported failed operations or mismatching results")
		return 1
	}
	if regressions > 0 {
		fmt.Fprintf(w, "FAIL: %d end-to-end metric(s) worse than the base by more than the bound\n", regressions)
		return 1
	}
	return 0
}

func writeJSONFile(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
