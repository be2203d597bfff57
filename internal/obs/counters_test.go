package obs_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/promtest"
)

// counters_test.go — the service-metrics registry must emit strictly valid,
// deterministic Prometheus text exposition: same state → byte-identical
// scrapes, families in declaration order, series sorted, labels escaped.

func newTestCounters() *obs.Counters {
	c := obs.NewCounters()
	c.Declare("gw_requests_total", "counter", "Requests by tenant and code.")
	c.Declare("gw_daemons", "gauge", "Daemons by state.")
	c.Declare("gw_idle", "counter", "A family that never gets series.")
	return c
}

func render(c *obs.Counters) string {
	var b strings.Builder
	if _, err := c.WriteTo(&b); err != nil {
		panic(err)
	}
	return b.String()
}

func TestCountersExposition(t *testing.T) {
	c := newTestCounters()
	c.Add("gw_requests_total", obs.Labels("tenant", "acme", "code", "200"), 1)
	c.Add("gw_requests_total", obs.Labels("tenant", "acme", "code", "200"), 2)
	c.Add("gw_requests_total", obs.Labels("tenant", "zeta", "code", "429"), 1)
	c.Add("gw_requests_total", "", 4)
	c.Set("gw_daemons", obs.Labels("state", "alive"), 3)
	c.Set("gw_daemons", obs.Labels("state", "dead"), 1)
	c.Set("gw_daemons", obs.Labels("state", "alive"), 2)

	body := render(c)
	series := promtest.Parse(t, body)

	for key, want := range map[string]float64{
		`gw_requests_total{tenant="acme",code="200"}`: 3,
		`gw_requests_total{tenant="zeta",code="429"}`: 1,
		`gw_requests_total{}`:                         4,
		`gw_daemons{state="alive"}`:                   2,
		`gw_daemons{state="dead"}`:                    1,
	} {
		if got, ok := series[key]; !ok || got != want {
			t.Errorf("series %s = %g (present=%v), want %g", key, got, ok, want)
		}
	}
	if len(series) != 5 {
		t.Errorf("got %d series, want 5: %v", len(series), series)
	}

	// Determinism: a second scrape of the same state is byte-identical.
	if again := render(c); again != body {
		t.Errorf("scrapes differ:\n--- first\n%s--- second\n%s", body, again)
	}

	// Declaration order: families appear in the order they were declared,
	// and an empty family still emits its header.
	iReq := strings.Index(body, "# HELP gw_requests_total")
	iDae := strings.Index(body, "# HELP gw_daemons")
	iIdle := strings.Index(body, "# HELP gw_idle")
	if iReq < 0 || iDae < 0 || iIdle < 0 || !(iReq < iDae && iDae < iIdle) {
		t.Errorf("family order wrong: req=%d daemons=%d idle=%d\n%s", iReq, iDae, iIdle, body)
	}
}

// TestCountersHistogram: a histogram family renders each snapshot as
// cumulative _bucket{…,le=…} lines closing on +Inf, plus _sum and _count,
// labeled and unlabeled, and Reset drops it like any other series.
func TestCountersHistogram(t *testing.T) {
	c := obs.NewCounters()
	c.Declare("x_latency_seconds", "histogram", "Exchange latency by tag.")
	var h obs.Histogram
	h.Observe(time.Microsecond)     // bucket 0 (le 1e-06)
	h.Observe(3 * time.Microsecond) // bucket 2 (le 4e-06)
	h.Observe(time.Hour)            // open-ended last bucket
	c.SetHistogram("x_latency_seconds", obs.Labels("tag", "phi"), h.Snapshot())
	c.SetHistogram("x_latency_seconds", "", h.Snapshot())

	body := render(c)
	series := promtest.Parse(t, body)
	for key, want := range map[string]float64{
		`x_latency_seconds_bucket{tag="phi",le="1e-06"}`: 1,
		`x_latency_seconds_bucket{tag="phi",le="2e-06"}`: 1,
		`x_latency_seconds_bucket{tag="phi",le="4e-06"}`: 2,
		`x_latency_seconds_bucket{tag="phi",le="+Inf"}`:  3,
		`x_latency_seconds_count{tag="phi"}`:             3,
		`x_latency_seconds_sum{tag="phi"}`:               3600.000004,
		`x_latency_seconds_bucket{le="+Inf"}`:            3,
		`x_latency_seconds_count{}`:                      3,
	} {
		if got, ok := series[key]; !ok || got != want {
			t.Errorf("series %s = %g (present=%v), want %g", key, got, ok, want)
		}
	}
	if want := 2 * (obs.NumBuckets + 2); len(series) != want {
		t.Errorf("got %d series, want %d:\n%s", len(series), want, body)
	}
	if again := render(c); again != body {
		t.Errorf("scrapes differ:\n--- first\n%s--- second\n%s", body, again)
	}

	c.Reset("x_latency_seconds")
	if left := promtest.Parse(t, render(c)); len(left) != 0 {
		t.Errorf("Reset left histogram series behind: %v", left)
	}
}

// TestCountersScrape: concurrent scrapes each see a fully published
// registry — never a family between another scrape's Reset and Set.
func TestCountersScrape(t *testing.T) {
	c := newTestCounters()
	publish := func() {
		c.Reset("gw_daemons")
		c.Set("gw_daemons", obs.Labels("state", "alive"), 2)
		c.Set("gw_daemons", obs.Labels("state", "dead"), 1)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				var b strings.Builder
				if err := c.Scrape(&b, publish); err != nil {
					t.Error(err)
					return
				}
				if !strings.Contains(b.String(), `gw_daemons{state="alive"} 2`) ||
					!strings.Contains(b.String(), `gw_daemons{state="dead"} 1`) {
					t.Errorf("scrape saw a half-published family:\n%s", b.String())
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestCountersReset(t *testing.T) {
	c := newTestCounters()
	c.Set("gw_daemons", obs.Labels("state", "alive"), 3)
	c.Set("gw_daemons", obs.Labels("state", "dead"), 1)
	c.Reset("gw_daemons")
	c.Set("gw_daemons", obs.Labels("state", "alive"), 2)

	series := promtest.Parse(t, render(c))
	if _, stale := series[`gw_daemons{state="dead"}`]; stale {
		t.Error("Reset left the dead-state series behind")
	}
	if v := series[`gw_daemons{state="alive"}`]; v != 2 {
		t.Errorf("alive gauge %g, want 2", v)
	}
}

func TestCountersLabelEscaping(t *testing.T) {
	c := obs.NewCounters()
	c.Declare("esc_total", "counter", "Escaping check.")
	c.Add("esc_total", obs.Labels("path", `a\b"c`+"\n"), 1)
	series := promtest.Parse(t, render(c))
	if _, ok := series[`esc_total{path="a\\b\"c\n"}`]; !ok {
		t.Errorf("escaped series missing: %v", series)
	}
}

func TestCountersPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	c := newTestCounters()
	mustPanic("duplicate Declare", func() { c.Declare("gw_daemons", "gauge", "again") })
	mustPanic("bad type", func() { c.Declare("gw_summary", "summary", "unsupported") })
	mustPanic("undeclared Add", func() { c.Add("gw_nope_total", "", 1) })
	mustPanic("odd Labels", func() { obs.Labels("tenant") })
}

// TestCountersConcurrent exercises updates racing WriteTo under -race.
func TestCountersConcurrent(t *testing.T) {
	c := newTestCounters()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			lbl := obs.Labels("tenant", string(rune('a'+n)), "code", "200")
			for j := 0; j < 500; j++ {
				c.Add("gw_requests_total", lbl, 1)
				c.Set("gw_daemons", obs.Labels("state", "alive"), float64(j))
			}
		}(i)
	}
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				render(c)
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-scraped

	series := promtest.Parse(t, render(c))
	var total float64
	for i := 0; i < 4; i++ {
		v, _ := promtest.FindSeries(t, series, "gw_requests_total",
			`tenant="`+string(rune('a'+i))+`"`)
		total += v
	}
	if total != 2000 {
		t.Errorf("lost updates: total %g, want 2000", total)
	}
}
