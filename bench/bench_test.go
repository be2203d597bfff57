package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// Percentiles interpolate between closest ranks; quartiles follow Python's
// statistics.quantiles(xs, n=4), the rule the acceptance spread is stated
// in.
func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5}, {100, 9}, {25, 3}, {90, 8.2}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample must be NaN")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(seq(10)); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	if q1, q3 := quartiles(seq(4)); !near(q1, 1.25) || !near(q3, 3.75) {
		t.Errorf("quartiles(1..4) = %g, %g, want 1.25, 3.75", q1, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	if q1, q3 := quartiles([]float64{10, 20}); !near(q1, 7.5) || !near(q3, 22.5) {
		t.Errorf("quartiles(10, 20) = %g, %g, want 7.5, 22.5", q1, q3)
	}
	if got := spread(seq(10)); !near(got, 5.5/5.5) {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
}

// The tail percentile is the highest candidate with at least ten samples
// beyond it; with too few samples it falls back to the median.
func TestTailPercentileNeedsSamplesBeyond(t *testing.T) {
	if got := samplesBeyond(seq(100), 90); got != 10 {
		t.Errorf("samples beyond p90 of 1..100 = %d, want 10", got)
	}
	cases := []struct {
		n     int
		wantP float64
	}{
		{2000, 99}, // 20 beyond p99
		{250, 95},  // 2 beyond p99, 12 beyond p95
		{100, 90},  // 5 beyond p95, 10 beyond p90
		{50, 75},   // 5 beyond p90, 12 beyond p75
		{15, 50},   // 3 beyond p75: no tail to report
	}
	for _, c := range cases {
		p, v := tailPercentile(seq(c.n), 10)
		if p != c.wantP {
			t.Errorf("tailPercentile(1..%d) chose p%g, want p%g", c.n, p, c.wantP)
		}
		if !near(v, percentile(seq(c.n), c.wantP)) {
			t.Errorf("tailPercentile(1..%d) value %g is not its percentile", c.n, v)
		}
	}
}

// Ten equal segments by operation count, the remainder dropped, the rate
// of each segment, the median of those.
func TestSegmentRates(t *testing.T) {
	// 23 ops: 10 segments of 2, three ops dropped. Ops of the first five
	// segments take 1 s, of the last five 2 s.
	durs := make([]float64, 23)
	for i := range durs {
		durs[i] = 1
		if i >= 10 {
			durs[i] = 2
		}
	}
	rates := segmentRates(durs, 4, 10) // 4 work units per op
	if len(rates) != 10 {
		t.Fatalf("got %d segments, want 10", len(rates))
	}
	for i, r := range rates {
		want := 4.0
		if i >= 5 {
			want = 2
		}
		if !near(r, want) {
			t.Errorf("segment %d rate %g, want %g", i, r, want)
		}
	}
	if got := median(segmentRates(durs, 4, 10)); !near(got, 3) {
		t.Errorf("median segment rate %g, want 3", got)
	}
	if got := segmentRates([]float64{1, 2, 4}, 1, 10); len(got) != 3 || !near(got[2], 0.25) {
		t.Errorf("fewer ops than segments: got %v, want one segment per op", got)
	}
	if segmentRates(nil, 1, 10) != nil {
		t.Error("no ops, no segments")
	}
}

// A span's self time is its duration minus the union of its direct
// children: nested grandchildren do not count twice, overlapping children
// are merged, children sticking out of the parent are clipped.
func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	mk := func(parent *span, layer string, from, to int) *span {
		s := &span{tr: tr, layer: layer, name: layer, opID: -1, parent: parent, start: at(from), end: at(to)}
		tr.spans = append(tr.spans, s)
		return s
	}
	root := mk(nil, "bench", 0, 100)
	a := mk(root, "solver", 10, 40) // 30 ms, holds a nested child
	aa := mk(a, "kernels", 15, 25)  // nested: charged to a, not to root
	b := mk(root, "comm", 30, 60)   // overlaps a on [30,40)
	c := mk(root, "ckpt", 90, 120)  // sticks out of root: clipped at 100
	d := mk(root, "comm", 70, 80)   // disjoint
	self := selfTimes(tr.spans)
	want := map[*span]time.Duration{
		root: (100 - (50 + 10 + 10)) * time.Millisecond, // children cover [10,60) ∪ [70,80) ∪ [90,100)
		a:    20 * time.Millisecond,
		aa:   10 * time.Millisecond,
		b:    30 * time.Millisecond,
		c:    30 * time.Millisecond,
		d:    10 * time.Millisecond,
	}
	for s, w := range want {
		if self[s] != w {
			t.Errorf("self time of %s [%v] = %v, want %v", s.layer, s.start.Sub(tr.epoch), self[s], w)
		}
	}
	selfMs, calls := tr.layerSelf(root)
	if !near(selfMs["comm"], 40) || calls["comm"] != 2 {
		t.Errorf("comm layer: %g ms over %d calls, want 40 ms over 2", selfMs["comm"], calls["comm"])
	}
	if _, ok := selfMs["bench"]; ok {
		t.Error("the root span itself must not be charged to a layer")
	}
	if got := tr.uncoveredFrac(root); !near(got, 0.30) {
		t.Errorf("uncovered share of the root = %g, want 0.30", got)
	}

	var buf bytes.Buffer
	if err := tr.write(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	complete := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			complete++
		}
	}
	if complete != len(tr.spans) {
		t.Errorf("trace holds %d complete events for %d spans", complete, len(tr.spans))
	}

	// A nil tracer records nothing and costs nothing to call.
	var off *tracer
	if s := off.start(nil, "x", "y", 0).onLane(3); s != nil {
		t.Error("nil tracer handed out a span")
	} else {
		s.finish()
	}
}

// fullResult builds a run result carrying every catalogue metric.
func fullResult(trace bool) *runResult {
	res := &runResult{Workload: "dense_interface", Seed: 1, Seconds: 10, Trace: trace,
		Correct: true, Attempted: 12, EndToEnd: map[string]Metric{}, PerLayer: map[string]Metric{},
		Extras: map[string]Metric{"parallel_eff": {Value: 0.8, Unit: "ratio"}}}
	for i, d := range endToEnd {
		res.EndToEnd[d.Name] = Metric{Value: float64(i) + 0.5, Unit: d.Unit, N: 3, Q1: 0.25, Q3: 0.75}
	}
	for i, d := range perLayer {
		res.PerLayer[d.Name] = Metric{Value: float64(i) + 0.25, Unit: d.Unit}
	}
	return res
}

// The driver's line has exactly the protocol's keys, and exactly the
// end-to-end metrics untraced, the per-layer metrics traced.
func TestDriverLineSchema(t *testing.T) {
	for _, trace := range []bool{false, true} {
		line, err := driverLine(fullResult(trace))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.ContainsRune(line, '\n') {
			t.Error("the driver line must be one line")
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(line, &top); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := top[k]; !ok {
				t.Errorf("trace=%v: key %q missing", trace, k)
			}
		}
		if len(top) != 4 {
			t.Errorf("trace=%v: %d top-level keys, want 4", trace, len(top))
		}
		var metrics map[string]map[string]any
		if err := json.Unmarshal(top["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if len(metrics) != len(defs) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := metrics[d.Name]
			if !ok {
				t.Errorf("trace=%v: metric %s missing", trace, d.Name)
				continue
			}
			if m["unit"] != d.Unit || len(m) != 2 {
				t.Errorf("trace=%v: metric %s = %v, want value and unit %q only", trace, d.Name, m, d.Unit)
			}
		}
	}
	res := fullResult(false)
	delete(res.EndToEnd, "setup_s")
	if _, err := driverLine(res); err == nil {
		t.Error("a result lacking an end-to-end metric must not produce a driver line")
	}
}

// Detail and ledger files survive a JSON round trip unchanged.
func TestResultFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	res := fullResult(true)
	path := filepath.Join(dir, "detail.json")
	if err := writeJSONFile(path, res); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back runResult
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, &back) {
		t.Errorf("detail file changed in the round trip:\n%+v\n%+v", res, &back)
	}

	led := &ledger{
		Meta:      ledgerMeta{Commit: "abc1234", NProc: 2, GOMAXPROCS: 2, GOGC: "100", GoVersion: "go1.24.0", Seed: 1, Runs: 2, Seconds: 10, Order: "forward", Sizes: calibrated},
		Workloads: map[string]map[string]Metric{"halo_tcp": {"step_mlups": {Value: 1.5, Unit: "MLUP/s", N: 2, Q1: 1.4, Q3: 1.6}}},
		Samples:   map[string]map[string][]float64{"halo_tcp": {"step_mlups": {1.4, 1.6}}},
		Correct:   true,
	}
	path = filepath.Join(dir, ledgerName(led))
	if filepath.Base(path) != "abc1234_2c.json" {
		t.Errorf("ledger file name %q", filepath.Base(path))
	}
	if err := writeJSONFile(path, led); err != nil {
		t.Fatal(err)
	}
	got, err := loadLedgers(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Samples, led.Samples) || got.Meta != led.Meta || !got.Correct {
		t.Errorf("ledger changed in the round trip: %+v", got)
	}
	// Two files pool their samples in order.
	got, err = loadLedgers(path + "," + path)
	if err != nil {
		t.Fatal(err)
	}
	if xs := got.Samples["halo_tcp"]["step_mlups"]; !reflect.DeepEqual(xs, []float64{1.4, 1.6, 1.4, 1.6}) {
		t.Errorf("pooled samples %v", xs)
	}
}

// The comparison rule: a regression past the bound, "unresolved" when the
// spread exceeds the bound, a gain only with nine of ten pairs won and a
// median shift beyond the base's own quartile distance.
func TestCompareVerdicts(t *testing.T) {
	rate := metricDef{Name: "step_mlups", Unit: "MLUP/s", Better: "higher", Bound: 0.10}
	lat := metricDef{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"rate up 20%", rate, base, scale(base, 1.2), "GAIN"},
		{"rate down 20%", rate, base, scale(base, 0.8), "REGRESSION"},
		{"latency up 20%", lat, base, scale(base, 1.2), "REGRESSION"},
		{"latency down 20%", lat, base, scale(base, 0.8), "GAIN"},
		{"same", rate, base, base, "unchanged"},
		{"tiny shift inside the IQR", rate, base, scale(base, 1.005), "unchanged"},
		{"noisy base", rate, []float64{80, 120, 70, 130, 100, 90, 110, 60, 140, 100}, scale(base, 1.2), "unresolved"},
		{"too few pairs", rate, base[:3], scale(base[:3], 1.2), "within bound"},
		{"one run each, worse", rate, base[:1], scale(base[:1], 0.8), "WORSE"},
		{"one run each, fine", rate, base[:1], scale(base[:1], 0.95), "within bound"},
	}
	for _, c := range cases {
		_, got := verdict(c.d, c.a, c.b)
		if !strings.HasPrefix(got, c.want) {
			t.Errorf("%s: verdict %q, want prefix %q", c.name, got, c.want)
		}
	}
	if w := worsening(rate, 100, 90); !near(w, 0.10) {
		t.Errorf("worsening of a rate 100 -> 90 = %g, want 0.10", w)
	}
	if w := worsening(lat, 100, 90); !near(w, -0.10) {
		t.Errorf("worsening of a latency 100 -> 90 = %g, want -0.10", w)
	}
}

// BENCHMARK.json at the repository root names the same workloads and
// metrics as the code, within the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(blob, &top); err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(top) != len(wantKeys) {
		t.Errorf("BENCHMARK.json has %d keys, want exactly %v", len(top), wantKeys)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "-C", "bench", "repro/bench"}) {
		t.Errorf("command %v", doc.Command)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: %q differs from the code's %q", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the catalogue:\n%v\n%v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the catalogue")
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q: duplicate or over the name/unit limits", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Error("too many metrics for the driver")
	}
}

// smokeRun runs one workload at toy size and checks the result's shape.
// No wall-clock assertion: the run only has to complete and be correct.
func smokeRun(t *testing.T, entry workloadEntry, trace bool) {
	t.Helper()
	res, err := runOne(entry, defaultSeed, 0.1, trace, toySizes, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Mismatched != 0 || res.Attempted < 1 || res.Checked < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d checked=%d mismatched=%d notes=%v",
			entry.Name, res.Correct, res.Attempted, res.Failed, res.Checked, res.Mismatched, res.Notes)
	}
	line, err := driverLine(res)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Metrics map[string]struct{ Value float64 } `json:"metrics"`
	}
	if err := json.Unmarshal(line, &parsed); err != nil {
		t.Fatal(err)
	}
	if !trace {
		for _, d := range endToEnd {
			if v := parsed.Metrics[d.Name].Value; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %g, want > 0", entry.Name, d.Name, v)
			}
		}
	}
}

// All six workloads at toy size, untraced — the smoke that keeps the
// benchmark compiling and its code paths alive. Runs under -short.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, entry := range workloads {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) { smokeRun(t, entry, false) })
	}
}

// One traced run: spans, the trace file and the whole probe suite.
func TestSmokeTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("the probe suite takes a few seconds")
	}
	dir := t.TempDir()
	entry, _ := findWorkload("io_cycle")
	res, err := runOne(entry, defaultSeed, 0.1, true, toySizes, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run incorrect: %v", res.Notes)
	}
	for _, d := range perLayer {
		m, ok := res.PerLayer[d.Name]
		if !ok {
			t.Errorf("per-layer metric %s missing", d.Name)
		} else if m.Note == "not measured in this run" {
			t.Errorf("per-layer metric %s was not measured", d.Name)
		}
	}
	blob, err := os.ReadFile(filepath.Join(dir, "trace_io_cycle.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	want := map[string]bool{"solver:step": false, "ckpt:checkpoint": false, "ckpt:restore": false, "mesh:extract": false}
	for _, ev := range doc.TraceEvents {
		if _, ok := want[ev.Name]; ok {
			want[ev.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace lacks a %s span", name)
		}
	}
}
