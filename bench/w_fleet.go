package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"repro/internal/fleet"
	"repro/internal/jobd"
)

// w_fleet.go — fleet_array: one tenant's sweep array through a
// fleet.Gateway (ProbeEvery 25 ms, DeadAfter 3, replication store on) over
// two in-process daemons (MaxConcurrent 1, Budget 1 each). A clean leg,
// then a fresh fleet with daemon 1 killed once FleetKillAfter children
// have settled. Gateway placement, polling, replication and requeue
// dominate; the jobs are the small ones of daemon_smalljobs.
//
// The unit operation is a child's turnaround: array submission → the
// child's result replicated at the gateway, as a tenant polling
// GET /arrays/{id} sees it. Children requeued off the dead daemon are the
// tail.

const (
	fleetTenantToken = "bench-tenant-token"
	fleetOpsToken    = "bench-fleet-token"
	fleetProbeEvery  = 25 * time.Millisecond
	fleetDeadAfter   = 3
	fleetPollEvery   = 5 * time.Millisecond
)

// testFleet is a gateway plus its daemons on loopback listeners.
type testFleet struct {
	gw      *fleet.Gateway
	ts      *httptest.Server
	url     string
	daemons []*daemon
	client  *http.Client
}

// startFleet boots n daemons and a gateway over them under dir and waits
// until the gateway has probed a daemon alive.
func startFleet(dir string, n int, dcfg jobd.Config) (*testFleet, error) {
	f := &testFleet{client: newClient(2)}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		d, err := startDaemon(dcfg, filepath.Join(dir, fmt.Sprintf("daemon-%d", i)))
		if err != nil {
			f.close()
			return nil, err
		}
		f.daemons = append(f.daemons, d)
		urls[i] = d.url
	}
	gw, err := fleet.New(fleet.Config{
		Daemons:    urls,
		Tenants:    []fleet.Tenant{{Name: "bench", Token: fleetTenantToken}},
		FleetToken: fleetOpsToken,
		ProbeEvery: fleetProbeEvery,
		DeadAfter:  fleetDeadAfter,
		StoreDir:   filepath.Join(dir, "gateway"),
		Client:     &http.Client{Timeout: 5 * time.Second},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = gw
	gw.Start()
	f.ts = httptest.NewServer(gw.Handler())
	f.url = f.ts.URL
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _, err := httpDo(f.client, http.MethodGet, f.url+"/healthz", "", nil)
		if err == nil && code == http.StatusOK {
			// Alive means at least one daemon; placement wants all of them.
			var fs fleet.FleetStatus
			if f.getJSON("/fleet", fleetOpsToken, &fs) == nil && aliveDaemons(fs) == n {
				return f, nil
			}
		}
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("gateway did not see %d daemons alive", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func aliveDaemons(fs fleet.FleetStatus) int {
	n := 0
	for _, d := range fs.Daemons {
		if d.Alive {
			n++
		}
	}
	return n
}

// getJSON GETs a gateway path and decodes a 200 body into out.
func (f *testFleet) getJSON(path, token string, out any) error {
	code, body, err := httpDo(f.client, http.MethodGet, f.url+path, token, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, code, body)
	}
	return json.Unmarshal(body, out)
}

// close tears the fleet down: gateway first, so the monitor stops talking
// to daemons, then every surviving daemon.
func (f *testFleet) close() {
	if f == nil {
		return
	}
	if f.ts != nil {
		f.ts.CloseClientConnections()
		f.ts.Close()
	}
	if f.gw != nil {
		f.gw.Close()
	}
	for _, d := range f.daemons {
		d.close()
	}
	closeClient(f.client)
}

// arrayRun is what one array through a fleet produced.
type arrayRun struct {
	wallS       float64           // POST /arrays → merged results and every child blob read
	admitMs     float64           // POST /arrays round trip
	mergeMs     float64           // GET /arrays/{id}/results round trip
	turnaround  []float64         // per child: submission → seen settled, ms
	placed      []float64         // per child: submission → seen placed on a daemon, ms
	settled     []settledChild    // per settled child: where it ran, when it was seen settled
	hashes      map[string]string // spec key → result hash
	children    int
	unsettled   int
	requeues    int
	detectMs    float64 // kill → gateway reports the daemon dead (loss leg)
	killedAtS   float64
	pollErrs    int
	resultBytes int
}

// settledChild is a child the tenant saw settled (done and replicated).
type settledChild struct {
	daemon, remoteID string
	at               time.Time
}

// settleLagMs returns, per settled child, the time from the hosting
// daemon's own `done` mark to the tenant seeing the child replicated: the
// gateway's poll of the daemon, the replication into its store and the
// tenant's poll of the gateway. The gateway polls and replicates in one
// monitor pass, so a tenant never observes "done, not yet replicated";
// the daemon's mark is the only outside view of when that pass had work.
// The daemons must still be up.
func (r *arrayRun) settleLagMs(c *http.Client) ([]float64, error) {
	lag := make([]float64, 0, len(r.settled))
	for _, ch := range r.settled {
		m, err := fetchMarks(c, ch.daemon, ch.remoteID)
		if err != nil {
			return nil, err
		}
		lag = append(lag, float64(ch.at.UnixMicro()-m.done)/1e3)
	}
	return lag, nil
}

// runArray submits the array as the tenant, polls the array status until
// every child is settled, then fetches the merged results and every
// child's result through the gateway. With killAfter > 0, daemon victim is
// killed once that many children have settled.
func runArray(e *env, parent *span, f *testFleet, as jobd.ArraySpec, opID, killAfter, victim int) (*arrayRun, error) {
	body, err := json.Marshal(as)
	if err != nil {
		return nil, err
	}
	run := &arrayRun{hashes: map[string]string{}}
	t0 := time.Now()
	sp := e.tr.start(parent, "fleet", "array.admit", opID)
	code, out, err := httpDo(f.client, http.MethodPost, f.url+"/arrays", fleetTenantToken, body)
	sp.finish()
	run.admitMs = msSince(t0)
	if err != nil {
		return nil, err
	}
	if code != http.StatusCreated {
		return nil, fmt.Errorf("POST /arrays: %d %s", code, out)
	}
	var st fleet.ArrayStatus
	if err := json.Unmarshal(out, &st); err != nil {
		return nil, err
	}
	run.children = len(st.Children)

	placedAt := map[string]time.Time{}
	settledAt := map[string]time.Time{}
	var killedAt time.Time
	victimURL := ""
	deadline := t0.Add(150 * time.Second)
	for {
		sp := e.tr.start(parent, "fleet", "http.poll", opID)
		err := f.getJSON("/arrays/"+st.ID, fleetTenantToken, &st)
		sp.finish()
		now := time.Now()
		if err != nil {
			run.pollErrs++
		} else {
			for _, c := range st.Children {
				if _, ok := placedAt[c.ID]; !ok && c.Daemon != "" {
					placedAt[c.ID] = now
				}
				if _, ok := settledAt[c.ID]; !ok && c.State == jobd.StateDone && c.Replicated {
					settledAt[c.ID] = now
				}
			}
			if killAfter > 0 && killedAt.IsZero() && len(settledAt) >= killAfter {
				ksp := e.tr.start(parent, "fleet", "kill", opID)
				victimURL = f.daemons[victim].url
				f.daemons[victim].kill()
				ksp.finish()
				killedAt = time.Now()
				run.killedAtS = killedAt.Sub(t0).Seconds()
			}
			if st.State != jobd.StateRunning && len(settledAt) == run.children {
				break
			}
			if st.State == jobd.StateFailed || st.State == jobd.StateCanceled {
				break
			}
		}
		if !killedAt.IsZero() && run.detectMs == 0 {
			var fs fleet.FleetStatus
			if f.getJSON("/fleet", fleetOpsToken, &fs) == nil {
				for _, d := range fs.Daemons {
					if d.URL == victimURL && !d.Alive {
						run.detectMs = float64(time.Since(killedAt)) / float64(time.Millisecond)
					}
				}
			}
		}
		if now.After(deadline) {
			break
		}
		time.Sleep(fleetPollEvery)
	}

	// The merged results: one row per child, then every child's bytes.
	tm := time.Now()
	sp = e.tr.start(parent, "fleet", "array.results", opID)
	var res fleet.ArrayResults
	err = f.getJSON("/arrays/"+st.ID+"/results", fleetTenantToken, &res)
	sp.finish()
	run.mergeMs = msSince(tm)
	if err != nil {
		return nil, err
	}
	specs, err := as.Expand()
	if err != nil {
		return nil, err
	}
	for i, row := range res.Children {
		if row.State != jobd.StateDone || row.ResultPath == "" {
			run.unsettled++
			continue
		}
		sp := e.tr.start(parent, "fleet", "http.result", opID)
		code, blob, err := httpDo(f.client, http.MethodGet, f.url+row.ResultPath, fleetTenantToken, nil)
		sp.finish()
		if err != nil || code != http.StatusOK {
			continue
		}
		run.resultBytes += len(blob)
		run.hashes[specKey(specs[i])] = hashBytes(blob)
	}
	run.wallS = time.Since(t0).Seconds()

	for _, c := range st.Children {
		run.requeues += c.Requeues
		if at, ok := settledAt[c.ID]; ok {
			run.turnaround = append(run.turnaround, float64(at.Sub(t0))/float64(time.Millisecond))
			run.settled = append(run.settled, settledChild{c.Daemon, c.RemoteID, at})
		}
		if at, ok := placedAt[c.ID]; ok {
			run.placed = append(run.placed, float64(at.Sub(t0))/float64(time.Millisecond))
		}
	}
	return run, nil
}

// failures counts what went wrong in an array run: children without a
// fetched result, plus refused status polls.
func (r *arrayRun) failures() int {
	return r.children - len(r.hashes) + r.pollErrs
}

type fleetWorkload struct {
	f     *testFleet
	as    jobd.ArraySpec
	specs []jobd.Spec
	runs  []*arrayRun
	n     int // fleets booted, for distinct directories
}

func fleetDaemonConfig() jobd.Config {
	return jobd.Config{MaxConcurrent: 1, Budget: 1, ReportEvery: 5}
}

func (w *fleetWorkload) boot(e *env) (*testFleet, error) {
	w.n++
	sp := e.tr.start(e.root, "fleet", "boot", w.n)
	defer sp.finish()
	return startFleet(filepath.Join(e.tmp, fmt.Sprintf("fleet-%d", w.n)), 2, fleetDaemonConfig())
}

func (w *fleetWorkload) setup(e *env) error {
	w.as = sweepArray(e, e.sz.FleetVmax, e.sz.FleetSeeds)
	var err error
	if w.specs, err = w.as.Expand(); err != nil {
		return err
	}
	if w.f, err = w.boot(e); err != nil {
		return err
	}
	// One child through the whole path before anything is timed, as the
	// daemon workload's set-up does: first placement, first replication,
	// first store writes. It also makes set-up long enough to measure.
	warm, err := runArray(e, e.root, w.f, sweepArray(e, 1, 1), -1, 0, 0)
	if err != nil {
		return err
	}
	if n := warm.failures(); n > 0 {
		return fmt.Errorf("warm-up array: %d of %d children failed", n, warm.children)
	}
	return nil
}

func (w *fleetWorkload) run(e *env, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	var clean, loss []float64
	work := float64(len(w.specs)) * jobCells(w.specs[0]) / 1e6
	var prevEnd time.Time
	var lastPair time.Duration
	for pair := 0; pair < 1 || worthStarting(deadline, lastPair); pair++ {
		pairStart := time.Now()
		// Clean leg on the fleet at hand, loss leg on a fresh one.
		for leg, killAfter := range []int{0, e.sz.FleetKillAfter} {
			if w.f == nil {
				var err error
				if w.f, err = w.boot(e); err != nil {
					return err
				}
			}
			if !prevEnd.IsZero() {
				e.gap(msSince(prevEnd))
			}
			op := e.tr.start(e.root, "bench", []string{"array.clean", "array.loss"}[leg], pair)
			r, err := runArray(e, op, w.f, w.as, pair, killAfter, 1)
			op.finish()
			prevEnd = time.Now()
			w.f.close()
			w.f = nil
			if err != nil {
				return err
			}
			w.runs = append(w.runs, r)
			e.attempt(r.children, r.failures())
			for _, t := range r.turnaround {
				e.op(t)
			}
			if leg == 0 {
				clean = append(clean, r.wallS)
			} else {
				loss = append(loss, r.wallS)
				if r.requeues == 0 {
					e.attempt(1, 1)
					e.notes = append(e.notes, "loss leg saw no requeue: the kill landed after the array finished")
				}
			}
		}
		e.rate(2 * work / (clean[len(clean)-1] + loss[len(loss)-1]))
		lastPair = time.Since(pairStart)
	}
	e.extra("array_wall_s", fromSamples(clean, "s"))
	e.extra("array_loss_wall_s", fromSamples(loss, "s"))
	e.extra("requeue_cost_s", Metric{Value: median(loss) - median(clean), Unit: "s", N: len(loss)})
	return nil
}

// verify: every child of every leg must equal the direct phasefield run of
// its spec — which makes the legs byte-identical to each other and to any
// single-daemon run.
func (w *fleetWorkload) verify(e *env) error {
	ref, err := referenceHashes(e, w.specs)
	if err != nil {
		return err
	}
	for i, r := range w.runs {
		for _, sp := range w.specs {
			key := specKey(sp)
			got, ok := r.hashes[key]
			if !ok {
				continue // counted as a failure by the run
			}
			e.check(got == ref[key], "fleet_array: leg %d child %s result %s differs from the direct run %s", i, key, got, ref[key])
		}
	}
	checkPin(e, "fleet_array", ref[specKey(w.specs[0])])
	return nil
}

func (w *fleetWorkload) close() {
	w.f.close()
	w.f = nil
}
