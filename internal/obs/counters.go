package obs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// counters.go — the service-metrics side of the observability package.
// Ring, StepTotals and Histogram serve the solver's hot path (zero
// allocation, zero locking); Counters serves the opposite regime: a
// control-plane process (the job daemon, the federation gateway) counting
// requests, rejections and fleet transitions at human rates, where a mutex
// per update is irrelevant but deterministic, strictly valid Prometheus
// text exposition is mandatory. Families are emitted in declaration order
// and series in sorted label order, so two scrapes of the same state are
// byte-identical — the property the strict exposition-format tests pin.

// Counters is a registry of Prometheus metric families for service-level
// exposition. Declare every family up front, then Add (counters), Set
// (gauges) or SetHistogram labeled series at runtime; WriteTo renders the
// text format. All methods are safe for concurrent use.
type Counters struct {
	// scrape serializes Scrape calls: publish + render is one unit.
	scrape sync.Mutex

	mu    sync.Mutex
	order []string
	fams  map[string]*counterFamily
}

// counterFamily is one declared metric family and its labeled series:
// values for counters and gauges, snapshots for histograms.
type counterFamily struct {
	typ    string
	help   string
	series map[string]float64           // label block (no braces) → value
	hists  map[string]HistogramSnapshot // label block (no braces) → snapshot
}

// NewCounters returns an empty registry.
func NewCounters() *Counters {
	return &Counters{fams: map[string]*counterFamily{}}
}

// Declare registers a metric family. typ is a Prometheus metric type
// ("counter", "gauge" or "histogram"); declaring the same name twice
// panics — families are a fixed part of a service's surface, not runtime
// data.
func (c *Counters) Declare(name, typ, help string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.fams[name]; dup {
		panic("obs: duplicate counter family " + name)
	}
	switch typ {
	case "counter", "gauge", "histogram":
	default:
		panic("obs: counter family " + name + " has unsupported type " + typ)
	}
	c.fams[name] = &counterFamily{typ: typ, help: help,
		series: map[string]float64{}, hists: map[string]HistogramSnapshot{}}
	c.order = append(c.order, name)
}

// Add increments the series of a declared family by delta. labels is a
// preformatted label block without braces (use Labels); empty means the
// unlabeled series. Adding to an undeclared family panics (a typo would
// otherwise silently export a HELP-less series and fail the strict
// format tests only later).
func (c *Counters) Add(name, labels string, delta float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.family(name).series[labels] += delta
}

// Set overwrites the series of a declared family — gauge semantics.
func (c *Counters) Set(name, labels string, v float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.family(name).series[labels] = v
}

// SetHistogram overwrites one labeled series of a declared histogram
// family with a snapshot; WriteTo renders it as cumulative
// _bucket{…,le=…} lines plus _sum and _count.
func (c *Counters) SetHistogram(name, labels string, h HistogramSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.family(name).hists[labels] = h
}

// Reset drops every series of a family. Gauges whose label sets shrink
// between scrapes (a daemon deregisters, a tenant goes idle) call Reset
// before re-Setting the current population, so stale series disappear
// instead of freezing at their last value.
func (c *Counters) Reset(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.family(name)
	f.series = map[string]float64{}
	f.hists = map[string]HistogramSnapshot{}
}

// family resolves a declared family; c.mu must be held.
func (c *Counters) family(name string) *counterFamily {
	f, ok := c.fams[name]
	if !ok {
		panic("obs: undeclared counter family " + name)
	}
	return f
}

// WriteTo renders the registry as Prometheus text exposition format
// (0.0.4): families in declaration order, one HELP and one TYPE line
// each, series in sorted label order. Families with no series emit only
// their HELP/TYPE header, which the format permits.
func (c *Counters) WriteTo(w io.Writer) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	var err error
	emit := func(format string, args ...any) {
		if err == nil {
			var m int
			m, err = fmt.Fprintf(w, format, args...)
			n += int64(m)
		}
	}
	bounds := BucketBounds()
	for _, name := range c.order {
		f := c.fams[name]
		emit("# HELP %s %s\n# TYPE %s %s\n", name, f.help, name, f.typ)
		for _, k := range sortedKeys(f.series) {
			emit("%s%s %g\n", name, braced(k), f.series[k])
		}
		for _, k := range sortedKeys(f.hists) {
			h := f.hists[k]
			sep := ""
			if k != "" {
				sep = ","
			}
			cum := int64(0)
			for i, cnt := range h.Buckets {
				cum += cnt
				le := "+Inf"
				if i < NumBuckets-1 {
					le = fmt.Sprintf("%g", bounds[i].Seconds())
				}
				emit("%s_bucket{%s%sle=\"%s\"} %d\n", name, k, sep, le, cum)
			}
			emit("%s_sum%s %g\n", name, braced(k), h.Sum.Seconds())
			emit("%s_count%s %d\n", name, braced(k), h.Count)
		}
	}
	return n, err
}

// Scrape is one /metrics response: publish refreshes the scrape-time
// series (Reset + Set from the service's live state), then the registry
// is rendered to w. Scrapes are serialized, so a concurrent one never
// renders a family between another's Reset and Set; the rendering is
// buffered, so a slow reader holds no lock.
func (c *Counters) Scrape(w io.Writer, publish func()) error {
	var buf bytes.Buffer
	func() {
		c.scrape.Lock()
		defer c.scrape.Unlock()
		publish()
		_, _ = c.WriteTo(&buf) // a bytes.Buffer write cannot fail
	}()
	_, err := w.Write(buf.Bytes())
	return err
}

// sortedKeys returns a series map's label blocks in exposition order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// braced wraps a non-empty label block in braces.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// Labels formats alternating key/value pairs as a Prometheus label block
// (without braces), escaping values per the text format. Keys are emitted
// in argument order — pass them in one canonical order per family so
// identical label sets map to identical series keys.
func Labels(kv ...string) string {
	if len(kv)%2 != 0 {
		panic("obs: Labels needs key/value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		v := kv[i+1]
		for j := 0; j < len(v); j++ {
			switch v[j] {
			case '\\':
				b.WriteString(`\\`)
			case '"':
				b.WriteString(`\"`)
			case '\n':
				b.WriteString(`\n`)
			default:
				b.WriteByte(v[j])
			}
		}
		b.WriteByte('"')
	}
	return b.String()
}
