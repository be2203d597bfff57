package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// run.go — one workload run in this process: set up (several times, the
// median is setup_s), the timed part, the correctness gate and, in a
// traced run, the per-layer probes. The driver starts one fresh process
// per run, so nothing here is shared between runs.

// Metric is one reported value. Value is the headline figure (a median
// unless Note says otherwise); N, Q1 and Q3 describe the samples behind
// it when there are any.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// fromSamples builds a Metric whose value is the samples' median.
func fromSamples(xs []float64, unit string) Metric {
	q1, q3 := quartiles(xs)
	return clean(Metric{Value: median(xs), Unit: unit, N: len(xs), Q1: q1, Q3: q3})
}

// clean replaces NaN/Inf (an empty sample, a zero divisor) by 0 so the
// metric survives JSON encoding, and says so.
func clean(m Metric) Metric {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	if bad(m.Value) {
		m.Value = 0
		m.Note = joinNote(m.Note, "no samples")
	}
	if bad(m.Q1) {
		m.Q1 = 0
	}
	if bad(m.Q3) {
		m.Q3 = 0
	}
	return m
}

func joinNote(a, b string) string {
	if a == "" {
		return b
	}
	return a + "; " + b
}

// env is what a workload sees: its inputs (seed, sizes), a scratch
// directory, the tracer, and the recorders for operations and checks.
type env struct {
	seed int64
	sz   sizes
	tmp  string // scratch directory inside bench/out, removed at exit
	tr   *tracer
	root *span // span of the current phase; parent for the workload's spans

	mu         sync.Mutex
	attempted  int
	failed     int
	checked    int
	mismatched int
	ops        []float64 // unit-operation latencies, ms
	rates      []float64 // work-rate samples, MLUP/s
	gaps       []float64 // driver time between consecutive operations, ms
	extras     map[string]Metric
	notes      []string
}

// op records one completed unit operation of the workload.
func (e *env) op(ms float64) {
	e.mu.Lock()
	e.ops = append(e.ops, ms)
	e.mu.Unlock()
}

// rate records one work-rate sample (MLUP/s over a segment of the run).
func (e *env) rate(mlups float64) {
	e.mu.Lock()
	e.rates = append(e.rates, mlups)
	e.mu.Unlock()
}

// gap records the driver-side time between two consecutive operations of
// one client — how late the load generator ran.
func (e *env) gap(ms float64) {
	e.mu.Lock()
	e.gaps = append(e.gaps, ms)
	e.mu.Unlock()
}

// attempt counts n attempted operations of which bad failed or were
// refused.
func (e *env) attempt(n, bad int) {
	e.mu.Lock()
	e.attempted += n
	e.failed += bad
	e.mu.Unlock()
}

// check records one correctness comparison.
func (e *env) check(ok bool, format string, args ...any) {
	e.mu.Lock()
	e.checked++
	if !ok {
		e.mismatched++
		e.notes = append(e.notes, "MISMATCH: "+fmt.Sprintf(format, args...))
	}
	e.mu.Unlock()
}

// extra records a workload-specific named metric for the detail file and
// the human-readable report.
func (e *env) extra(name string, m Metric) {
	e.mu.Lock()
	e.extras[name] = clean(m)
	e.mu.Unlock()
}

// workload is one benchmark workload. setup may be called several times,
// each preceded by close of the previous instance; run is the timed part
// and stops once budget has elapsed; verify is the correctness gate.
type workload interface {
	setup(e *env) error
	run(e *env, budget time.Duration) error
	verify(e *env) error
	close()
}

// workloadEntry registers a workload under its BENCHMARK.json name; the
// reason each exists is recorded there and in README.md.
type workloadEntry struct {
	Name string
	mk   func() workload
}

// workloads is the frozen workload set, in BENCHMARK.json order.
var workloads = []workloadEntry{
	{"dense_interface", func() workload { return &denseWorkload{} }},
	{"sparse_column", func() workload { return &sparseWorkload{} }},
	{"halo_tcp", func() workload { return &haloWorkload{} }},
	{"io_cycle", func() workload { return &ioWorkload{} }},
	{"daemon_smalljobs", func() workload { return &daemonWorkload{} }},
	{"fleet_array", func() workload { return &fleetWorkload{} }},
}

// findWorkload resolves a workload name.
func findWorkload(name string) (workloadEntry, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadEntry{}, false
}

// A run sets up at least minSetups times, and keeps setting up cheap
// workloads until setupBudget has gone or maxSetups is reached; setup_s is
// the median, so a one-off stall (a cold page cache, a late GC) does not
// decide it.
const (
	minSetups   = 3
	maxSetups   = 12
	setupBudget = time.Second
)

// runResult is everything one run produced.
type runResult struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Checked    int               `json:"checked"`
	Mismatched int               `json:"mismatched"`
	EndToEnd   map[string]Metric `json:"end_to_end"`
	PerLayer   map[string]Metric `json:"per_layer,omitempty"`
	Extras     map[string]Metric `json:"extras,omitempty"`
	Notes      []string          `json:"notes,omitempty"`
	TimedS     float64           `json:"timed_s"`
	TotalS     float64           `json:"total_s"`
}

// runOne executes one workload run and returns its result. outDir is the
// benchmark's output directory (bench/out).
func runOne(entry workloadEntry, seed int64, seconds float64, trace bool, sz sizes, outDir string) (*runResult, error) {
	start := time.Now()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-"+entry.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	e := &env{seed: seed, sz: sz, tmp: tmp, extras: map[string]Metric{}}
	if trace {
		e.tr = newTracer()
	}
	w := entry.mk()

	// Set-up, several times over: the median is setup_s, the last instance
	// is the one measured.
	var setups []float64
	for i := 0; i < minSetups || (i < maxSetups && time.Since(start) < setupBudget); i++ {
		if i > 0 {
			// Drop the previous instance before the next one allocates, so
			// that the peak resident size is one instance, not a collector
			// race between two.
			w.close()
			runtime.GC()
		}
		e.root = e.tr.start(nil, "bench", "setup", i)
		t0 := time.Now()
		err := w.setup(e)
		setups = append(setups, time.Since(t0).Seconds())
		e.root.finish()
		if err != nil {
			w.close()
			return nil, fmt.Errorf("%s: setup: %w", entry.Name, err)
		}
	}
	defer w.close()

	// The timed part. A collection first, so that garbage from set-up is
	// not collected on the clock.
	runtime.GC()
	timedRoot := e.tr.start(nil, "bench", "timed", -1)
	e.root = timedRoot
	t0 := time.Now()
	if err := w.run(e, time.Duration(seconds*float64(time.Second))); err != nil {
		return nil, fmt.Errorf("%s: run: %w", entry.Name, err)
	}
	timed := time.Since(t0)
	timedRoot.finish()
	rss := peakRSSMB()

	e.root = e.tr.start(nil, "bench", "verify", -1)
	if err := w.verify(e); err != nil {
		return nil, fmt.Errorf("%s: verify: %w", entry.Name, err)
	}
	e.root.finish()

	// Per-layer probes and the trace file, in a traced run. Their
	// correctness checks count like the workload's own.
	var perLayer map[string]Metric
	if trace {
		selfMs, calls := e.tr.layerSelf(timedRoot)
		spansTimed := 0
		for layer, ms := range selfMs {
			e.extra("span."+layer+".self_ms", Metric{Value: ms, Unit: "ms", N: calls[layer]})
			spansTimed += calls[layer]
		}
		perLayer = runProbes(e)
		cost := perLayer["bench.span_cost_ns"].Value
		perLayer["bench.spans"] = Metric{Value: float64(spansTimed), Unit: "count"}
		perLayer["bench.trace_overhead_frac"] = Metric{
			Value: float64(spansTimed) * cost / float64(timed.Nanoseconds()), Unit: "ratio",
			Note: "computed: spans in the timed part x measured span cost / timed wall"}
		perLayer["bench.driver_self_frac"] = Metric{
			Value: e.tr.uncoveredFrac(timedRoot), Unit: "ratio",
			Note: "share of the timed wall outside every span"}
		perLayer["bench.generator_lag_ms"] = fromSamples(e.gaps, "ms")
		perLayer["bench.op_ms_p90"] = clean(Metric{Value: percentile(e.ops, 90), Unit: "ms", N: len(e.ops),
			Note: "this traced run's own unit operations"})
		if err := writeTrace(e.tr, filepath.Join(outDir, "trace_"+entry.Name+".json"), entry.Name); err != nil {
			return nil, err
		}
	}

	res := &runResult{
		Workload: entry.Name, Seed: seed, Seconds: seconds, Trace: trace,
		Attempted: e.attempted + e.checked, Failed: e.failed + e.mismatched,
		Checked: e.checked, Mismatched: e.mismatched,
		PerLayer: perLayer, Extras: e.extras, Notes: e.notes, TimedS: timed.Seconds(),
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	res.EndToEnd = map[string]Metric{
		"setup_s":     fromSamples(setups, "s"),
		"step_mlups":  fromSamples(e.rates, "MLUP/s"),
		"op_ms_p50":   fromSamples(e.ops, "ms"),
		"peak_rss_mb": {Value: rss, Unit: "MB", N: 1},
	}
	res.Extras["op_ms_p90"] = clean(Metric{Value: percentile(e.ops, 90), Unit: "ms", N: len(e.ops),
		Note: fmt.Sprintf("%d samples beyond", samplesBeyond(e.ops, 90))})
	tailP, tailV := tailPercentile(e.ops, 10)
	res.Extras["op_ms_tail"] = clean(Metric{Value: tailV, Unit: "ms", N: len(e.ops),
		Note: fmt.Sprintf("p%g: the highest of p99/p95/p90/p75 with ten samples beyond it (p50: none has)", tailP)})
	res.Extras["fail_frac"] = Metric{Value: frac(e.failed, e.attempted), Unit: "ratio", N: e.attempted}
	res.Extras["mismatch_frac"] = Metric{Value: frac(e.mismatched, e.checked), Unit: "ratio", N: e.checked}
	res.TotalS = time.Since(start).Seconds()
	return res, nil
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeTrace writes the buffered spans to path.
func writeTrace(t *tracer, path, process string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.write(f, "bench "+process); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// driverLine is the one-line JSON result the driver reads from the last
// line of standard output.
func driverLine(res *runResult) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src, defs := res.EndToEnd, endToEnd
	if res.Trace {
		src, defs = res.PerLayer, perLayer
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		m, ok := src[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not produced", res.Workload, d.Name)
		}
		metrics[d.Name] = mv{m.Value, d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
}

// printHuman writes the readable report of one run.
func printHuman(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%g  trace=%v  timed=%.2fs  total=%.2fs\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.TimedS, res.TotalS)
	section := func(title string, ms map[string]Metric) {
		if len(ms) == 0 {
			return
		}
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "-- %s\n", title)
		for _, n := range names {
			m := ms[n]
			line := fmt.Sprintf("  %-34s %14.6g %-7s", n, m.Value, m.Unit)
			if m.N > 0 {
				line += fmt.Sprintf(" n=%d", m.N)
			}
			if m.Q1 != 0 || m.Q3 != 0 {
				line += fmt.Sprintf(" q1=%.6g q3=%.6g", m.Q1, m.Q3)
			}
			if m.Note != "" {
				line += "  (" + m.Note + ")"
			}
			fmt.Fprintln(w, line)
		}
	}
	section("end to end", res.EndToEnd)
	section("workload detail", res.Extras)
	section("per layer (probes)", res.PerLayer)
	for _, n := range res.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	fmt.Fprintf(w, "-- correct=%v attempted=%d failed=%d checked=%d mismatched=%d\n",
		res.Correct, res.Attempted, res.Failed, res.Checked, res.Mismatched)
}
