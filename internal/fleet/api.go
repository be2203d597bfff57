package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/jobd"
)

// api.go — the gateway's HTTP/JSON surface. Tenant endpoints require a
// tenant bearer token and sit behind per-tenant rate limits and the
// request body cap; fleet endpoints require the fleet token:
//
//	POST   /arrays               submit an ArraySpec; fans children across the fleet
//	GET    /arrays               list the tenant's arrays
//	GET    /arrays/{id}          one array's aggregated status
//	GET    /arrays/{id}/results  merged per-child results across daemons
//	DELETE /arrays/{id}          cancel every non-settled child fleet-wide
//	GET    /jobs/{id}/result     a child's final checkpoint (replicated or proxied)
//	GET    /jobs/{id}/schedule   a child's replayable schedule
//	POST   /fleet/register       daemon heartbeat/registration {"url": ...}
//	GET    /fleet                fleet status: daemons, tenants, load
//	GET    /healthz              gateway liveness (503 with no alive daemon)
//	GET    /metrics              gateway counters, Prometheus text format
//
// Every error body is the structured jobd.APIError {"error": ..., "code":
// ...} with a stable machine-readable code: the ones shared with the
// daemons (jobd.Code*) plus the gateway's own below.

// Error codes only the gateway returns.
const (
	CodeUnauthorized = "unauthorized"
	CodeOverQuota    = "over_quota"
	CodeRateLimited  = "rate_limited"
	CodeNoDaemons    = "no_daemons"
)

// writeError counts the rejection by code and emits the structured body.
func (g *Gateway) writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	g.metrics.reject(code)
	jobd.WriteError(w, status, code, format, args...)
}

// Handler returns the gateway's HTTP API, wrapped in the request body
// cap.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /arrays", g.tenantEndpoint(g.handleSubmitArray))
	mux.HandleFunc("GET /arrays", g.tenantEndpoint(g.handleListArrays))
	mux.HandleFunc("GET /arrays/{id}", g.tenantEndpoint(g.handleArrayStatus))
	mux.HandleFunc("GET /arrays/{id}/results", g.tenantEndpoint(g.handleArrayResults))
	mux.HandleFunc("DELETE /arrays/{id}", g.tenantEndpoint(g.handleCancelArray))
	mux.HandleFunc("GET /jobs/{id}/result", g.tenantEndpoint(g.handleChildResult))
	mux.HandleFunc("GET /jobs/{id}/schedule", g.tenantEndpoint(g.handleChildSchedule))
	mux.HandleFunc("POST /fleet/register", g.fleetEndpoint(g.handleRegister))
	mux.HandleFunc("GET /fleet", g.fleetEndpoint(g.handleFleetStatus))
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	return http.MaxBytesHandler(mux, g.cfg.MaxRequestBody)
}

// bearerToken extracts the Authorization bearer token, empty if absent.
func bearerToken(r *http.Request) string {
	const prefix = "Bearer "
	h := r.Header.Get("Authorization")
	if len(h) > len(prefix) && h[:len(prefix)] == prefix {
		return h[len(prefix):]
	}
	return ""
}

// statusRecorder captures the response status for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// tenantEndpoint authenticates the tenant token, applies the tenant's
// rate limit, and counts the request by tenant and response code.
func (g *Gateway) tenantEndpoint(h func(http.ResponseWriter, *http.Request, *Tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		t, ok := g.tenants[bearerToken(r)]
		if !ok {
			g.writeError(sr, http.StatusUnauthorized, CodeUnauthorized,
				"missing or unknown tenant token")
			g.metrics.request("unknown", sr.code)
			return
		}
		if !g.allow(t, time.Now()) {
			g.writeError(sr, http.StatusTooManyRequests, CodeRateLimited,
				"tenant %s exceeded %g requests/s (burst %d)", t.Name, t.RatePerSec, t.Burst)
			g.metrics.request(t.Name, sr.code)
			return
		}
		h(sr, r, t)
		g.metrics.request(t.Name, sr.code)
	}
}

// fleetEndpoint authenticates the fleet (operator) token. An empty
// configured FleetToken leaves the operator surface open — loopback
// development only.
func (g *Gateway) fleetEndpoint(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if g.cfg.FleetToken != "" && bearerToken(r) != g.cfg.FleetToken {
			g.writeError(w, http.StatusUnauthorized, CodeUnauthorized, "missing or bad fleet token")
			return
		}
		h(w, r)
	}
}

// bucket is a per-tenant request token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// allow consumes one token from the tenant's bucket, refilling by
// elapsed wall time; tenants with no configured rate always pass.
func (g *Gateway) allow(t *Tenant, now time.Time) bool {
	if t.RatePerSec <= 0 {
		return true
	}
	burst := float64(t.Burst)
	if burst < 1 {
		burst = 1
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.buckets[t.Name]
	if !ok {
		b = &bucket{tokens: burst, last: now}
		g.buckets[t.Name] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * t.RatePerSec
	b.last = now
	if b.tokens > burst {
		b.tokens = burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

func (g *Gateway) handleSubmitArray(w http.ResponseWriter, r *http.Request, t *Tenant) {
	var as jobd.ArraySpec
	if status, code, err := jobd.DecodeBody(r, &as); err != nil {
		g.writeError(w, status, code, "bad array spec: %v", err)
		return
	}
	// The tenant's class overrides whatever the spec asked for: class is
	// the tenant's resource boundary, not a client choice.
	as.Template.Class = t.Class
	specs, err := as.Expand()
	if err != nil {
		g.writeError(w, http.StatusBadRequest, jobd.CodeBadRequest, "%v", err)
		return
	}
	g.mu.Lock()
	if t.MaxActive > 0 {
		active := g.tenantActive(t.Name)
		if active+len(specs) > t.MaxActive {
			g.mu.Unlock()
			g.writeError(w, http.StatusTooManyRequests, CodeOverQuota,
				"tenant %s quota: %d active + %d submitted children exceeds max_active %d",
				t.Name, active, len(specs), t.MaxActive)
			return
		}
	}
	if g.aliveCountLocked() == 0 {
		g.mu.Unlock()
		g.writeError(w, http.StatusServiceUnavailable, CodeNoDaemons,
			"no alive daemon to place work on")
		return
	}
	g.nextArrayID++
	arr := &gwArray{
		id:     fmt.Sprintf("fleet-%04d", g.nextArrayID),
		tenant: t.Name,
		name:   as.Name,
		spec:   as,
		seq:    int64(g.nextArrayID),
	}
	for i, sp := range specs {
		c := &child{
			id:      fmt.Sprintf("%s.%03d", arr.id, i),
			arrayID: arr.id,
			tenant:  t.Name,
			spec:    sp,
			state:   jobd.StateQueued,
		}
		arr.children = append(arr.children, c)
		g.children[c.id] = c
	}
	g.arrays[arr.id] = arr
	status := g.arrayStatusLocked(arr)
	g.mu.Unlock()
	g.logf("fleet: array %s: %d children for tenant %s", arr.id, len(specs), t.Name)
	g.kickMonitor()
	jobd.WriteJSON(w, http.StatusCreated, status)
}

// ChildStatus is the gateway view of one fanned-out child.
type ChildStatus struct {
	// ID is the gateway child id ("fleet-0001.003").
	ID string `json:"id"`
	// Daemon is the base URL of the hosting daemon, empty while unplaced.
	Daemon string `json:"daemon,omitempty"`
	// RemoteID is the job's id on the hosting daemon.
	RemoteID string `json:"remote_id,omitempty"`
	// State is the gateway's view of the child's lifecycle.
	State jobd.State `json:"state"`
	// Params are the child's expanded grid-point parameters.
	Params map[string]float64 `json:"params,omitempty"`
	// Step, Time and Solid mirror the last polled daemon-side status.
	Step  int     `json:"step"`
	Time  float64 `json:"time"`
	Solid float64 `json:"solid"`
	// Error carries the daemon-side failure message, if any.
	Error string `json:"error,omitempty"`
	// Requeues counts how many times daemon loss forced a re-placement.
	Requeues int `json:"requeues,omitempty"`
	// Replicated reports whether the result blob landed in the gateway
	// store.
	Replicated bool `json:"replicated,omitempty"`
}

// ArrayStatus is the gateway's aggregated view of one array
// (GET /arrays/{id}).
type ArrayStatus struct {
	// ID is the gateway array id ("fleet-0001").
	ID string `json:"id"`
	// Name echoes the submitted array name.
	Name string `json:"name,omitempty"`
	// Tenant owns the array.
	Tenant string `json:"tenant"`
	// State aggregates the children: running while any child is unsettled,
	// then failed/canceled/done by worst outcome.
	State jobd.State `json:"state"`
	// Counts tallies children by gateway-side state.
	Counts map[jobd.State]int `json:"counts"`
	// Children lists each child's gateway status in grid order.
	Children []ChildStatus `json:"children"`
}

// childStatusLocked snapshots one child; g.mu must be held.
func childStatusLocked(c *child) ChildStatus {
	cs := ChildStatus{
		ID: c.id, Daemon: c.daemonURL, RemoteID: c.remoteID,
		State: c.state, Params: c.spec.Params,
		Step: c.status.Step, Time: c.status.Time, Solid: c.status.Solid,
		Error: c.status.Error, Requeues: c.requeues,
		Replicated: c.resultHash != "",
	}
	return cs
}

// arrayStatusLocked aggregates one array; g.mu must be held.
func (g *Gateway) arrayStatusLocked(arr *gwArray) ArrayStatus {
	st := ArrayStatus{
		ID: arr.id, Name: arr.name, Tenant: arr.tenant,
		Counts: map[jobd.State]int{},
	}
	anyActive, anyFailed, anyCanceled := false, false, false
	for _, c := range arr.children {
		st.Children = append(st.Children, childStatusLocked(c))
		st.Counts[c.state]++
		switch {
		case !g.settledLocked(c):
			anyActive = true
		case c.state == jobd.StateFailed:
			anyFailed = true
		case c.state == jobd.StateCanceled:
			anyCanceled = true
		}
	}
	switch {
	case anyActive:
		st.State = jobd.StateRunning
	case anyFailed:
		st.State = jobd.StateFailed
	case anyCanceled:
		st.State = jobd.StateCanceled
	default:
		st.State = jobd.StateDone
	}
	return st
}

// arrayFor resolves the {id} path value within the tenant's scope.
func (g *Gateway) arrayFor(w http.ResponseWriter, r *http.Request, t *Tenant) (*gwArray, bool) {
	id := r.PathValue("id")
	g.mu.Lock()
	arr, ok := g.arrays[id]
	if ok && arr.tenant != t.Name {
		// Another tenant's array is indistinguishable from a missing one.
		ok = false
	}
	g.mu.Unlock()
	if !ok {
		g.writeError(w, http.StatusNotFound, jobd.CodeNotFound, "no array %q", id)
		return nil, false
	}
	return arr, true
}

func (g *Gateway) handleListArrays(w http.ResponseWriter, r *http.Request, t *Tenant) {
	g.mu.Lock()
	out := []ArrayStatus{}
	for _, arr := range g.sortedArrays() {
		if arr.tenant == t.Name {
			out = append(out, g.arrayStatusLocked(arr))
		}
	}
	g.mu.Unlock()
	jobd.WriteJSON(w, http.StatusOK, out)
}

func (g *Gateway) handleArrayStatus(w http.ResponseWriter, r *http.Request, t *Tenant) {
	arr, ok := g.arrayFor(w, r, t)
	if !ok {
		return
	}
	g.mu.Lock()
	st := g.arrayStatusLocked(arr)
	g.mu.Unlock()
	jobd.WriteJSON(w, http.StatusOK, st)
}

// ChildResult is one entry of the gateway's merged results aggregation,
// shaped like jobd's per-daemon ChildResult so downstream tooling works
// against either.
type ChildResult struct {
	// ID is the gateway child id.
	ID string `json:"id"`
	// Params are the child's grid-point parameters.
	Params map[string]float64 `json:"params,omitempty"`
	// Class is the tenant's resource class the child ran under.
	Class string `json:"class"`
	// State is the gateway view of the child.
	State jobd.State `json:"state"`
	// Step, Time and Solid mirror the final daemon-side status.
	Step  int     `json:"step"`
	Time  float64 `json:"time"`
	Solid float64 `json:"solid"`
	// Error carries the failure message of failed children.
	Error string `json:"error,omitempty"`
	// ResultPath is the gateway endpoint serving the child's final
	// checkpoint, empty until the child is done.
	ResultPath string `json:"result_path,omitempty"`
	// Daemon is the base URL of the daemon that produced the result.
	Daemon string `json:"daemon,omitempty"`
}

// ArrayResults is the merged aggregation served by
// GET /arrays/{id}/results: one row per child regardless of which daemon
// ran it, with result paths pointing back at the gateway.
type ArrayResults struct {
	// ID and Name identify the array.
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// Tenant owns the array.
	Tenant string `json:"tenant"`
	// State is the aggregated array state.
	State jobd.State `json:"state"`
	// Children holds the merged per-child rows in grid order.
	Children []ChildResult `json:"children"`
}

func (g *Gateway) handleArrayResults(w http.ResponseWriter, r *http.Request, t *Tenant) {
	arr, ok := g.arrayFor(w, r, t)
	if !ok {
		return
	}
	g.mu.Lock()
	res := ArrayResults{ID: arr.id, Name: arr.name, Tenant: arr.tenant,
		State: g.arrayStatusLocked(arr).State}
	for _, c := range arr.children {
		row := ChildResult{
			ID: c.id, Params: c.spec.Params, Class: c.spec.Class,
			State: c.state, Step: c.status.Step, Time: c.status.Time,
			Solid: c.status.Solid, Error: c.status.Error, Daemon: c.daemonURL,
		}
		if c.state == jobd.StateDone {
			row.ResultPath = "/jobs/" + c.id + "/result"
		}
		res.Children = append(res.Children, row)
	}
	g.mu.Unlock()
	jobd.WriteJSON(w, http.StatusOK, res)
}

func (g *Gateway) handleCancelArray(w http.ResponseWriter, r *http.Request, t *Tenant) {
	arr, ok := g.arrayFor(w, r, t)
	if !ok {
		return
	}
	type target struct{ daemonURL, remoteID string }
	var targets []target
	g.mu.Lock()
	for _, c := range arr.children {
		if g.settledLocked(c) {
			continue
		}
		if c.daemonURL == "" {
			// Unplaced children cancel instantly — nothing remote to undo.
			c.state = jobd.StateCanceled
			continue
		}
		targets = append(targets, target{c.daemonURL, c.remoteID})
	}
	st := g.arrayStatusLocked(arr)
	g.mu.Unlock()
	for _, tg := range targets {
		req, err := http.NewRequest(http.MethodDelete,
			tg.daemonURL+"/jobs/"+tg.remoteID, nil)
		if err != nil {
			continue
		}
		if resp, err := g.client.Do(req); err == nil {
			resp.Body.Close()
		}
	}
	g.kickMonitor()
	jobd.WriteJSON(w, http.StatusAccepted, st)
}

// childFor resolves the {id} path value to a tenant-owned child.
func (g *Gateway) childFor(w http.ResponseWriter, r *http.Request, t *Tenant) (*child, bool) {
	id := r.PathValue("id")
	g.mu.Lock()
	c, ok := g.children[id]
	if ok && c.tenant != t.Name {
		ok = false
	}
	g.mu.Unlock()
	if !ok {
		g.writeError(w, http.StatusNotFound, jobd.CodeNotFound, "no job %q", id)
		return nil, false
	}
	return c, true
}

// serveChildBlob serves a child's blob from the gateway store when
// replicated, proxying to the hosting daemon otherwise.
func (g *Gateway) serveChildBlob(w http.ResponseWriter, c *child, hash, daemonPath, contentType string) {
	g.mu.Lock()
	st := g.store
	daemonURL, remoteID := c.daemonURL, c.remoteID
	g.mu.Unlock()
	if hash != "" && st != nil {
		blob, err := st.Blob(hash)
		if err != nil {
			g.writeError(w, http.StatusInternalServerError, jobd.CodeInternal,
				"replicated blob of %s: %v", c.id, err)
			return
		}
		w.Header().Set("Content-Type", contentType)
		_, _ = w.Write(blob)
		return
	}
	if daemonURL == "" {
		g.writeError(w, http.StatusConflict, jobd.CodeConflict,
			"job %s has not been placed on a daemon yet", c.id)
		return
	}
	resp, err := g.client.Get(daemonURL + "/jobs/" + remoteID + daemonPath)
	if err != nil {
		g.writeError(w, http.StatusBadGateway, jobd.CodeInternal,
			"daemon %s: %v", daemonURL, err)
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

func (g *Gateway) handleChildResult(w http.ResponseWriter, r *http.Request, t *Tenant) {
	c, ok := g.childFor(w, r, t)
	if !ok {
		return
	}
	g.mu.Lock()
	hash := c.resultHash
	state := c.state
	g.mu.Unlock()
	if state != jobd.StateDone {
		g.writeError(w, http.StatusConflict, jobd.CodeConflict,
			"job %s is %s; result exists only for done jobs", c.id, state)
		return
	}
	g.serveChildBlob(w, c, hash, "/result", "application/octet-stream")
}

func (g *Gateway) handleChildSchedule(w http.ResponseWriter, r *http.Request, t *Tenant) {
	c, ok := g.childFor(w, r, t)
	if !ok {
		return
	}
	g.mu.Lock()
	hash := c.schedHash
	g.mu.Unlock()
	g.serveChildBlob(w, c, hash, "/schedule", "application/json")
}

// registerRequest is the body of POST /fleet/register.
type registerRequest struct {
	// URL is the daemon's advertised base URL.
	URL string `json:"url"`
}

func (g *Gateway) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.URL == "" {
		g.writeError(w, http.StatusBadRequest, jobd.CodeBadRequest, "register body needs a url")
		return
	}
	g.mu.Lock()
	d, known := g.daemons[req.URL]
	if !known {
		d = &daemon{url: req.URL, registered: true}
		g.daemons[req.URL] = d
		g.logf("fleet: daemon %s registered", req.URL)
	}
	// A heartbeat is as good as a successful probe.
	d.fails = 0
	d.alive = true
	d.lastSeen = time.Now()
	g.mu.Unlock()
	g.kickMonitor()
	jobd.WriteJSON(w, http.StatusOK, map[string]string{"status": "registered"})
}

// DaemonStatus is the fleet-status view of one daemon.
type DaemonStatus struct {
	// URL is the daemon's base URL.
	URL string `json:"url"`
	// Alive reports whether the daemon currently passes health probes.
	Alive bool `json:"alive"`
	// Fails counts consecutive failed probes.
	Fails int `json:"fails"`
	// LastSeen is the last successful probe or heartbeat.
	LastSeen time.Time `json:"last_seen"`
	// Registered distinguishes runtime-registered daemons from the static
	// config list.
	Registered bool `json:"registered,omitempty"`
	// Children counts unsettled children currently placed on the daemon.
	Children int `json:"children"`
}

// TenantStatus is the fleet-status view of one tenant's load.
type TenantStatus struct {
	// Name and Class identify the tenant and its resource class.
	Name  string `json:"name"`
	Class string `json:"class,omitempty"`
	// Active counts the tenant's unsettled children fleet-wide;
	// MaxActive is the configured cap (0 = unlimited).
	Active    int `json:"active"`
	MaxActive int `json:"max_active,omitempty"`
}

// FleetStatus is the operator view served by GET /fleet.
type FleetStatus struct {
	// Daemons lists every known daemon, alive or dead.
	Daemons []DaemonStatus `json:"daemons"`
	// Tenants lists per-tenant load against quota.
	Tenants []TenantStatus `json:"tenants"`
	// Arrays and Children count the gateway's tracked units.
	Arrays   int `json:"arrays"`
	Children int `json:"children"`
	// Requeues counts children re-placed after daemon loss since start.
	Requeues int `json:"requeues"`
}

func (g *Gateway) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	// Non-nil slices: an empty fleet serves [], not null — clients
	// iterate the lists without special-casing a just-started gateway.
	st := FleetStatus{
		Arrays: len(g.arrays), Children: len(g.children),
		Daemons: []DaemonStatus{}, Tenants: []TenantStatus{},
	}
	placed := map[string]int{}
	for _, c := range g.children {
		st.Requeues += c.requeues
		if !g.settledLocked(c) && c.daemonURL != "" {
			placed[c.daemonURL]++
		}
	}
	for _, d := range g.daemons {
		st.Daemons = append(st.Daemons, DaemonStatus{
			URL: d.url, Alive: d.alive, Fails: d.fails, LastSeen: d.lastSeen,
			Registered: d.registered, Children: placed[d.url],
		})
	}
	sort.Slice(st.Daemons, func(i, j int) bool { return st.Daemons[i].URL < st.Daemons[j].URL })
	for _, t := range g.cfg.Tenants {
		st.Tenants = append(st.Tenants, TenantStatus{
			Name: t.Name, Class: t.Class,
			Active: g.tenantActive(t.Name), MaxActive: t.MaxActive,
		})
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Name < st.Tenants[j].Name })
	g.mu.Unlock()
	jobd.WriteJSON(w, http.StatusOK, st)
}

// GatewayHealth is the body of the gateway's /healthz.
type GatewayHealth struct {
	// Status is "ok" or "no_daemons".
	Status string `json:"status"`
	// AliveDaemons and Daemons count fleet membership.
	AliveDaemons int `json:"alive_daemons"`
	Daemons      int `json:"daemons"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	h := GatewayHealth{Status: "ok", AliveDaemons: g.aliveCountLocked(), Daemons: len(g.daemons)}
	g.mu.Unlock()
	code := http.StatusOK
	if h.AliveDaemons == 0 {
		h.Status = "no_daemons"
		code = http.StatusServiceUnavailable
	}
	jobd.WriteJSON(w, code, h)
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = g.metrics.c.Scrape(w, g.publishGauges) // a failed write is a scraper that went away
}

// aliveCountLocked counts alive daemons; g.mu must be held.
func (g *Gateway) aliveCountLocked() int {
	n := 0
	for _, d := range g.daemons {
		if d.alive {
			n++
		}
	}
	return n
}
