package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	phasefield "repro"
	"repro/internal/ckpt"
	"repro/internal/faultfs"
	"repro/internal/jobd"
	"repro/internal/schedule"
)

// jobdharness.go — an in-process solidifyd (a full jobd.Server over a real
// store directory behind a loopback httptest listener) and the client that
// drives it through the public HTTP API only. Shared by daemon_smalljobs,
// fleet_array and the jobd/fleet probes.

// sweepTemplate is the schedule of examples/sweep/array.json: a pull
// velocity ramp to ${vmax} plus one nucleation burst seeded by ${seed}.
const sweepTemplate = `{"events": [
  {"type": "ramp", "param": "v", "step": 0, "over": "${over}", "from": 0.02, "to": "${vmax}"},
  {"type": "burst", "step": 10, "count": 3, "phase": -1, "radius": 2.0, "zmin": 14, "zmax": 22, "seed": "${seed}"}
]}`

// sweepArray builds the examples/sweep campaign at the benchmark's job
// size over an nVmax × nSeeds grid. The grid values come from the workload
// seed: the daemon sees only the generated specs.
func sweepArray(e *env, nVmax, nSeeds int) jobd.ArraySpec {
	vmax := make([]float64, nVmax)
	for i := range vmax {
		// 0.0300, 0.0350, ... nudged in the fourth decimal by the seed.
		vmax[i] = float64(300+50*i+int(e.seed%5)) / 10000
	}
	seeds := make([]float64, nSeeds)
	for i := range seeds {
		seeds[i] = float64(e.seed*100 + int64(i) + 1)
	}
	return jobd.ArraySpec{
		Name: "pull-velocity-sweep",
		Template: jobd.Spec{
			NX: e.sz.JobNX, NY: e.sz.JobNY, NZ: e.sz.JobNZ, Steps: e.sz.JobSteps,
			Scenario: "interface",
			Params:   map[string]float64{"over": float64(e.sz.JobSteps * 2 / 3)},
			Schedule: json.RawMessage(sweepTemplate),
		},
		Axes: []jobd.Axis{{Param: "vmax", Values: vmax}, {Param: "seed", Values: seeds}},
	}
}

// jobCells is the cell-update count of one job of spec.
func jobCells(sp jobd.Spec) float64 {
	return float64(sp.NX*sp.NY*sp.NZ) * float64(sp.Steps)
}

// directRun executes a job spec with a bare phasefield simulation of the
// given worker count, the way the daemon's runner builds it, and returns the lossless final checkpoint
// — the reference every daemon and gateway result must equal byte for
// byte.
func directRun(sp jobd.Spec, workers int) ([]byte, error) {
	cfg := phasefield.DefaultConfig(sp.NX, sp.NY, sp.NZ)
	if sp.PX > 0 {
		cfg.PX = sp.PX
	}
	if sp.PY > 0 {
		cfg.PY = sp.PY
	}
	cfg.Seed = sp.Seed
	cfg.MovingWindow = sp.Window
	cfg.Parallelism = workers
	sim, err := newSim(cfg, sp.Scenario == "interface")
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	var sched *schedule.Schedule
	if len(sp.Schedule) > 0 {
		if sched, err = schedule.FromJSONBytes(sp.Schedule); err != nil {
			return nil, err
		}
	}
	if err := sim.RunSchedule(sched, sp.Steps, phasefield.ScheduleOptions{}); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := sim.WriteCheckpoint(&buf, ckpt.Float64); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// daemon is one in-process solidifyd.
type daemon struct {
	srv  *jobd.Server
	ts   *httptest.Server
	inj  *faultfs.Inject
	url  string
	dead bool
}

// startDaemon boots a jobd server over storeDir. The store runs through a
// fault-injectable filesystem so that kill can freeze it.
func startDaemon(cfg jobd.Config, storeDir string) (*daemon, error) {
	inj := faultfs.NewInject(nil)
	cfg.StoreDir = storeDir
	cfg.StoreFS = inj
	srv := jobd.New(cfg)
	if _, err := srv.LoadStore(); err != nil {
		return nil, err
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	return &daemon{srv: srv, ts: ts, inj: inj, url: ts.URL}, nil
}

// close shuts the daemon down cleanly. A no-op after kill.
func (d *daemon) close() {
	if d == nil || d.dead {
		return
	}
	d.dead = true
	d.ts.Close()
	d.srv.Close()
}

// kill models a SIGKILL the way fleettest does: the store freezes (every
// write after this instant fails), the listener closes with in-flight
// connections severed, and the goroutines are reaped.
func (d *daemon) kill() {
	if d.dead {
		return
	}
	d.dead = true
	d.inj.AddRule(&faultfs.Rule{Op: "*", Crash: true})
	d.ts.CloseClientConnections()
	d.ts.Close()
	d.srv.Close()
}

// newClient returns an HTTP client limited to conns connections per host —
// the load generator never holds more connections than the box has cores.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		},
	}
}

// closeClient releases a client's idle connections.
func closeClient(c *http.Client) {
	if t, ok := c.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// httpDo performs one request and reads the whole body. token, when
// non-empty, is sent as a bearer token.
func httpDo(c *http.Client, method, url, token string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// jobSample is what the client observed of one job.
type jobSample struct {
	id          string
	ok          bool    // every request 2xx, terminal state done
	submitMs    float64 // POST /jobs round trip
	doneMs      float64 // POST /jobs → result body fully read
	fetchMs     float64 // GET /result round trip
	resultHash  string
	resultBytes int
	submitted   time.Time
	streamEnd   time.Time // metrics stream EOF: the daemon closed the job out
	retries     int
	state       jobd.State
	// Stages from the daemon's own /jobs/{id}/trace marks (traced runs).
	queueWaitMs, firstStepMs, runMs, spillMs float64
	staged                                   bool
}

// submitJob POSTs a spec and returns the accepted job's id.
func submitJob(e *env, parent *span, c *http.Client, base string, spec []byte, opID int) (jobSample, error) {
	s := jobSample{submitted: time.Now()}
	sp := e.tr.start(parent, "jobd", "http.submit", opID)
	code, body, err := httpDo(c, http.MethodPost, base+"/jobs", "", spec)
	sp.finish()
	s.submitMs = msSince(s.submitted)
	if err != nil {
		return s, err
	}
	if code != http.StatusCreated {
		return s, fmt.Errorf("POST /jobs: %d %s", code, body)
	}
	var st jobd.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return s, err
	}
	s.id = st.ID
	return s, nil
}

// awaitJob follows the job's metrics stream until the daemon closes it
// (the job is terminal and spilled), then fetches the result. It holds one
// connection at a time and never polls.
func awaitJob(e *env, parent *span, c *http.Client, base string, s *jobSample, opID int) error {
	sp := e.tr.start(parent, "jobd", "http.stream", opID)
	resp, err := c.Get(base + "/jobs/" + s.id + "/metrics")
	if err != nil {
		sp.finish()
		return err
	}
	sc := bufio.NewScanner(resp.Body)
	var last jobd.Sample
	for sc.Scan() {
		_ = json.Unmarshal(sc.Bytes(), &last)
	}
	resp.Body.Close()
	sp.finish()
	s.streamEnd = time.Now()
	s.state = last.State
	if err := sc.Err(); err != nil {
		return err
	}

	t0 := time.Now()
	sp = e.tr.start(parent, "jobd", "http.result", opID)
	code, blob, err := httpDo(c, http.MethodGet, base+"/jobs/"+s.id+"/result", "", nil)
	sp.finish()
	if err != nil {
		return err
	}
	s.fetchMs = msSince(t0)
	s.doneMs = msSince(s.submitted)
	if code != http.StatusOK {
		return fmt.Errorf("GET /jobs/%s/result: %d %s (state %s)", s.id, code, blob, s.state)
	}
	s.resultHash = hashBytes(blob)
	s.resultBytes = len(blob)
	s.ok = s.state == jobd.StateDone
	return nil
}

// chromeTrace is the part of a trace_event document the stage breakdown
// reads.
type chromeTrace struct {
	TraceEvents []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Ts   int64  `json:"ts"`
		Dur  int64  `json:"dur"`
		Tid  int64  `json:"tid"`
	} `json:"traceEvents"`
}

// jobMarks are a finished job's lifecycle marks from the daemon's
// GET /jobs/{id}/trace, in Unix microseconds.
type jobMarks struct {
	submit, start, done int64
	firstStepEnd        int64 // end of the earliest step record; 0 without step records
	retries             int
}

// fetchMarks reads a finished job's lifecycle marks and step records.
func fetchMarks(c *http.Client, base, id string) (jobMarks, error) {
	var m jobMarks
	code, body, err := httpDo(c, http.MethodGet, base+"/jobs/"+id+"/trace", "", nil)
	if err != nil {
		return m, err
	}
	if code != http.StatusOK {
		return m, fmt.Errorf("GET /jobs/%s/trace: %d", id, code)
	}
	var tr chromeTrace
	if err := json.Unmarshal(body, &tr); err != nil {
		return m, err
	}
	for _, ev := range tr.TraceEvents {
		switch {
		case ev.Ph == "i" && ev.Name == "submit":
			m.submit = ev.Ts
		case ev.Ph == "i" && ev.Name == "start" && m.start == 0:
			m.start = ev.Ts
		case ev.Ph == "i" && ev.Name == "done":
			m.done = ev.Ts
		case ev.Ph == "i" && ev.Name == "retry":
			m.retries++
		case ev.Ph == "X" && strings.HasPrefix(ev.Name, "step ") && (m.firstStepEnd == 0 || ev.Ts+ev.Dur < m.firstStepEnd):
			m.firstStepEnd = ev.Ts + ev.Dur
		}
	}
	if m.submit == 0 || m.start == 0 || m.done == 0 {
		return m, fmt.Errorf("job %s: trace lacks lifecycle marks", id)
	}
	return m, nil
}

// fetchStages turns a finished job's marks into stage latencies. Client
// and daemon share this process' clock.
func fetchStages(e *env, parent *span, c *http.Client, base string, s *jobSample, opID int) error {
	sp := e.tr.start(parent, "jobd", "http.trace", opID)
	m, err := fetchMarks(c, base, s.id)
	sp.finish()
	if err != nil {
		return err
	}
	us := func(a, b int64) float64 { return float64(b-a) / 1e3 }
	s.queueWaitMs = us(m.submit, m.start)
	s.runMs = us(m.start, m.done)
	if m.firstStepEnd > 0 {
		s.firstStepMs = us(m.submit, m.firstStepEnd)
	}
	s.spillMs = us(m.done, s.streamEnd.UnixMicro())
	s.retries = m.retries
	s.staged = true
	return nil
}

// runJob is the closed-loop unit: submit, wait, fetch the result.
func runJob(e *env, parent *span, c *http.Client, base string, spec []byte, opID int, stages bool) (jobSample, error) {
	s, err := submitJob(e, parent, c, base, spec, opID)
	if err != nil {
		return s, err
	}
	if err := awaitJob(e, parent, c, base, &s, opID); err != nil {
		return s, err
	}
	if stages {
		if err := fetchStages(e, parent, c, base, &s, opID); err != nil {
			return s, err
		}
	}
	return s, nil
}

// referenceHashes runs every distinct spec directly and returns the
// result hash per spec blob.
func referenceHashes(e *env, specs []jobd.Spec) (map[string]string, error) {
	ref := make(map[string]string, len(specs))
	for i, sp := range specs {
		span := e.tr.start(e.root, "solver", "verify.direct", i)
		blob, err := directRun(sp, 1)
		span.finish()
		if err != nil {
			return nil, err
		}
		ref[specKey(sp)] = hashBytes(blob)
	}
	return ref, nil
}

// specKey identifies a spec by its parameter point.
func specKey(sp jobd.Spec) string {
	return fmt.Sprintf("vmax=%g seed=%d", sp.Params["vmax"], sp.Seed)
}
