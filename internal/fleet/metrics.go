package fleet

import (
	"strconv"

	"repro/internal/jobd"
	"repro/internal/obs"
)

// metrics.go — gateway observability: a small obs.Counters registry
// scraped at GET /metrics in strict Prometheus text format, the same way
// the daemons' is. Counters are updated at the event site; gauges are
// recomputed from gateway state at scrape time (Reset + Set under
// obs.Counters.Scrape, so series for vanished label values drop out
// instead of freezing at their last value).

// gwMetrics owns the gateway's counter registry.
type gwMetrics struct {
	c *obs.Counters
}

func newGWMetrics() *gwMetrics {
	c := obs.NewCounters()
	c.Declare("solidifygw_requests_total", "counter",
		"Tenant API requests, by tenant and HTTP status code.")
	c.Declare("solidifygw_rejects_total", "counter",
		"Rejected requests, by structured error code.")
	c.Declare("solidifygw_requeues_total", "counter",
		"Children re-placed after their daemon died.")
	c.Declare("solidifygw_replications_total", "counter",
		"Child results replicated into the gateway store.")
	c.Declare("solidifygw_daemons", "gauge",
		"Known daemons, by liveness state.")
	c.Declare("solidifygw_children", "gauge",
		"Tracked array children, by tenant and gateway-side state.")
	return &gwMetrics{c: c}
}

// request counts one authenticated (or rejected) tenant API request.
func (m *gwMetrics) request(tenant string, code int) {
	m.c.Add("solidifygw_requests_total", obs.Labels("tenant", tenant, "code", strconv.Itoa(code)), 1)
}

// reject counts one structured rejection by error code.
func (m *gwMetrics) reject(code string) {
	m.c.Add("solidifygw_rejects_total", obs.Labels("reason", code), 1)
}

// requeue counts one daemon-loss re-placement.
func (m *gwMetrics) requeue() {
	m.c.Add("solidifygw_requeues_total", "", 1)
}

// replicated counts one result blob landing in the gateway store.
func (m *gwMetrics) replicated() {
	m.c.Add("solidifygw_replications_total", "", 1)
}

// publishGauges recomputes the state gauges from the gateway's live
// maps; called at scrape time.
func (g *Gateway) publishGauges() {
	g.mu.Lock()
	alive, dead := 0, 0
	for _, d := range g.daemons {
		if d.alive {
			alive++
		} else {
			dead++
		}
	}
	type key struct {
		tenant string
		state  jobd.State
	}
	byChild := map[key]int{}
	for _, c := range g.children {
		byChild[key{c.tenant, c.state}]++
	}
	g.mu.Unlock()

	g.metrics.c.Reset("solidifygw_daemons")
	g.metrics.c.Set("solidifygw_daemons", obs.Labels("state", "alive"), float64(alive))
	g.metrics.c.Set("solidifygw_daemons", obs.Labels("state", "dead"), float64(dead))
	g.metrics.c.Reset("solidifygw_children")
	for k, n := range byChild {
		g.metrics.c.Set("solidifygw_children",
			obs.Labels("tenant", k.tenant, "state", string(k.state)), float64(n))
	}
}
