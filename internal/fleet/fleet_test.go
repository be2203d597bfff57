package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleet/fleettest"
	"repro/internal/jobd"
	"repro/internal/obs/promtest"
)

// fleet_test.go — federation acceptance, all hermetic via fleettest
// (real daemons on loopback listeners, no subprocesses; CI runs this
// package under -race):
//
//   - TestFleetDaemonLossByteIdentical: a 12-child array over 3 daemons
//     with one daemon killed mid-run merges byte-identical to a
//     1-daemon reference, with structured auth/quota/size rejections
//     checked on the way;
//   - rate limiting, tenant isolation and cancel fan-out;
//   - daemon registration + heartbeat via fleet.Announce;
//   - gateway restart serving replicated results with every daemon dead;
//   - strict Prometheus exposition of /metrics (shared promtest parser).

const (
	acmeToken  = "acme-token"
	fleetToken = "fleet-token"
)

// doReq performs one authenticated request and returns status + body.
func doReq(t *testing.T, method, url, token string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// getJSON GETs url with the token and decodes a 2xx JSON body into out.
func getJSON(t *testing.T, url, token string, out any) {
	t.Helper()
	code, body := doReq(t, http.MethodGet, url, token, nil)
	if code/100 != 2 {
		t.Fatalf("GET %s: %d %s", url, code, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// wantReject asserts a structured rejection with the given status and
// error code.
func wantReject(t *testing.T, code int, body []byte, wantStatus int, wantCode string) {
	t.Helper()
	if code != wantStatus {
		t.Fatalf("status %d (%s), want %d", code, body, wantStatus)
	}
	var ae jobd.APIError
	if err := json.Unmarshal(body, &ae); err != nil {
		t.Fatalf("unstructured error body %q: %v", body, err)
	}
	if ae.Code != wantCode {
		t.Fatalf("error code %q (%s), want %q", ae.Code, ae.Error, wantCode)
	}
}

// sweepArray builds the canonical test array: a velocity-ramp template
// swept over vmax × seed.
func sweepArray(steps int, vmax, seeds []float64) jobd.ArraySpec {
	return jobd.ArraySpec{
		Name: "sweep",
		Template: jobd.Spec{
			NX: 8, NY: 8, NZ: 8, Steps: steps, Scenario: "interface",
			Schedule: json.RawMessage(`{"events":[
				{"type":"ramp","param":"v","step":0,"over":` + fmt.Sprint(steps) + `,"from":0.02,"to":"${vmax}"}
			]}`),
		},
		Axes: []jobd.Axis{
			{Param: "vmax", Values: vmax},
			{Param: "seed", Values: seeds},
		},
	}
}

// submitArray POSTs an array as the tenant and returns the created
// status.
func submitArray(t *testing.T, base, token string, as jobd.ArraySpec) fleet.ArrayStatus {
	t.Helper()
	blob, err := json.Marshal(as)
	if err != nil {
		t.Fatal(err)
	}
	code, body := doReq(t, http.MethodPost, base+"/arrays", token, blob)
	if code != http.StatusCreated {
		t.Fatalf("POST /arrays: %d %s", code, body)
	}
	var st fleet.ArrayStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// arrayStatus fetches one array's aggregated status.
func arrayStatus(t *testing.T, base, token, id string) fleet.ArrayStatus {
	t.Helper()
	var st fleet.ArrayStatus
	getJSON(t, base+"/arrays/"+id, token, &st)
	return st
}

// childResult fetches a child's final checkpoint bytes through the
// gateway.
func childResult(t *testing.T, base, token, id string) []byte {
	t.Helper()
	code, body := doReq(t, http.MethodGet, base+"/jobs/"+id+"/result", token, nil)
	if code != http.StatusOK {
		t.Fatalf("GET /jobs/%s/result: %d %s", id, code, body)
	}
	if len(body) == 0 {
		t.Fatalf("empty result for %s", id)
	}
	return body
}

// childSchedule fetches a done child's applied schedule through the
// gateway and checks that it is JSON holding the velocity ramp with the
// child's vmax as its end value.
func childSchedule(t *testing.T, base, id string, vmax float64) []byte {
	t.Helper()
	code, body := doReq(t, http.MethodGet, base+"/jobs/"+id+"/schedule", acmeToken, nil)
	if code != http.StatusOK {
		t.Fatalf("GET /jobs/%s/schedule: %d %s", id, code, body)
	}
	var sched struct {
		Events []struct {
			Type  string  `json:"type"`
			Param string  `json:"param"`
			To    float64 `json:"to"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &sched); err != nil {
		t.Fatalf("GET /jobs/%s/schedule: %v in %s", id, err, body)
	}
	for _, ev := range sched.Events {
		if ev.Type == "ramp" && ev.Param == "v" && ev.To == vmax {
			return body
		}
	}
	t.Fatalf("GET /jobs/%s/schedule = %s, want a v ramp to %g", id, body, vmax)
	return nil
}

// The federation acceptance test: a 12-child parameter sweep fans out
// over 3 daemons; the daemon hosting a running child is killed mid-run
// (store frozen, connections severed); the gateway declares it dead,
// requeues its children onto the survivors, and the merged results are
// byte-identical to a 1-daemon reference fleet — determinism makes
// re-execution a sound recovery strategy. Unauthorized, over-quota and
// oversized submissions are rejected with structured errors on the way.
func TestFleetDaemonLossByteIdentical(t *testing.T) {
	// Children must run long enough (seconds, not milliseconds) for the
	// kill to land mid-run — short jobs would all finish before the
	// monitor even observes one running.
	const steps = 300
	as := sweepArray(steps, []float64{0.03, 0.04, 0.05, 0.06}, []float64{1, 2, 3})

	// Reference: the same array through a single-daemon fleet.
	ref := fleettest.New(t, fleettest.Options{Daemons: 1})
	refSt := submitArray(t, ref.URL, acmeToken, as)
	if len(refSt.Children) != 12 {
		t.Fatalf("reference expanded to %d children, want 12", len(refSt.Children))
	}
	fleettest.WaitFor(t, "reference array done", 180*time.Second, func() bool {
		return arrayStatus(t, ref.URL, acmeToken, refSt.ID).State == jobd.StateDone
	})
	want := map[string][]byte{}
	for _, c := range refSt.Children {
		want[c.ID] = childResult(t, ref.URL, acmeToken, c.ID)
	}

	// The fleet under test: 3 daemons, a quota-capped second tenant, and
	// a tight request body cap.
	fl := fleettest.New(t, fleettest.Options{
		Daemons:        3,
		MaxRequestBody: 4096,
		Tenants: []fleet.Tenant{
			{Name: "acme", Token: acmeToken},
			{Name: "tiny", Token: "tiny-token", MaxActive: 2},
		},
	})
	blob, _ := json.Marshal(as)

	// Production surface: every rejection is structured.
	code, body := doReq(t, http.MethodPost, fl.URL+"/arrays", "", blob)
	wantReject(t, code, body, http.StatusUnauthorized, fleet.CodeUnauthorized)
	code, body = doReq(t, http.MethodPost, fl.URL+"/arrays", "wrong-token", blob)
	wantReject(t, code, body, http.StatusUnauthorized, fleet.CodeUnauthorized)
	code, body = doReq(t, http.MethodPost, fl.URL+"/arrays", "tiny-token", blob)
	wantReject(t, code, body, http.StatusTooManyRequests, fleet.CodeOverQuota)
	big := as
	big.Name = strings.Repeat("x", 8192)
	bigBlob, _ := json.Marshal(big)
	code, body = doReq(t, http.MethodPost, fl.URL+"/arrays", acmeToken, bigBlob)
	wantReject(t, code, body, http.StatusRequestEntityTooLarge, jobd.CodeTooLarge)

	st := submitArray(t, fl.URL, acmeToken, as)
	if len(st.Children) != 12 {
		t.Fatalf("fleet expanded to %d children, want 12", len(st.Children))
	}
	if st.ID != refSt.ID {
		t.Fatalf("gateway array ids diverged: %s vs reference %s", st.ID, refSt.ID)
	}

	// Kill the daemon hosting a running child, mid-run.
	var victimURL string
	fleettest.WaitFor(t, "a child running on a daemon", 120*time.Second, func() bool {
		cur := arrayStatus(t, fl.URL, acmeToken, st.ID)
		for _, c := range cur.Children {
			if c.State == jobd.StateRunning && c.Daemon != "" {
				victimURL = c.Daemon
				return true
			}
		}
		return false
	})
	victim := -1
	for i, d := range fl.Daemons {
		if d.URL == victimURL {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatalf("running child reports unknown daemon %q", victimURL)
	}
	fl.Kill(victim)
	t.Logf("killed daemon %d (%s) mid-run", victim, victimURL)

	// The fleet finishes anyway: dead daemon detected, children requeued
	// onto the survivors, results replicated.
	fleettest.WaitFor(t, "array done after daemon loss", 300*time.Second, func() bool {
		return arrayStatus(t, fl.URL, acmeToken, st.ID).State == jobd.StateDone
	})
	final := arrayStatus(t, fl.URL, acmeToken, st.ID)
	for _, c := range final.Children {
		if !c.Replicated {
			t.Fatalf("done child %s not replicated into the gateway store", c.ID)
		}
		if c.Daemon == victimURL {
			t.Fatalf("child %s still attributed to the dead daemon", c.ID)
		}
	}

	// The operator surface agrees: the victim is dead, work was requeued.
	var fs fleet.FleetStatus
	getJSON(t, fl.URL+"/fleet", fleetToken, &fs)
	if fs.Requeues < 1 {
		t.Fatalf("fleet status reports %d requeues after a daemon death", fs.Requeues)
	}
	deadSeen := false
	for _, d := range fs.Daemons {
		if d.URL == victimURL && !d.Alive {
			deadSeen = true
		}
	}
	if !deadSeen {
		t.Fatalf("dead daemon %s not reported dead in %+v", victimURL, fs.Daemons)
	}

	// Byte identity: every child's merged result equals the single-daemon
	// reference bit-for-bit; the results aggregation carries matching
	// params and gateway-local result paths.
	var refRes, flRes fleet.ArrayResults
	getJSON(t, ref.URL+"/arrays/"+refSt.ID+"/results", acmeToken, &refRes)
	getJSON(t, fl.URL+"/arrays/"+st.ID+"/results", acmeToken, &flRes)
	if len(flRes.Children) != len(refRes.Children) {
		t.Fatalf("results rows %d vs reference %d", len(flRes.Children), len(refRes.Children))
	}
	for i, row := range flRes.Children {
		refRow := refRes.Children[i]
		if row.ID != refRow.ID || row.State != jobd.StateDone {
			t.Fatalf("row %d: id %s state %s, reference id %s", i, row.ID, row.State, refRow.ID)
		}
		for k, v := range refRow.Params {
			if row.Params[k] != v {
				t.Fatalf("row %s param %s = %g, reference %g", row.ID, k, row.Params[k], v)
			}
		}
		if row.ResultPath != "/jobs/"+row.ID+"/result" {
			t.Fatalf("row %s result_path %q", row.ID, row.ResultPath)
		}
		got := childResult(t, fl.URL, acmeToken, row.ID)
		if !bytes.Equal(got, want[row.ID]) {
			t.Fatalf("child %s result differs from the single-daemon reference (%d vs %d bytes)",
				row.ID, len(got), len(want[row.ID]))
		}
	}

	// The gateway's /metrics is strict Prometheus exposition and reflects
	// the recovery.
	mcode, mbody := doReq(t, http.MethodGet, fl.URL+"/metrics", "", nil)
	if mcode != http.StatusOK {
		t.Fatalf("/metrics: %d", mcode)
	}
	series := promtest.Parse(t, string(mbody))
	if v, ok := promtest.FindSeries(t, series, "solidifygw_requeues_total"); !ok || v < 1 {
		t.Fatalf("solidifygw_requeues_total = %g, want >= 1", v)
	}
	if v, ok := promtest.FindSeries(t, series, "solidifygw_daemons", `state="dead"`); !ok || v != 1 {
		t.Fatalf(`solidifygw_daemons{state="dead"} = %g, want 1`, v)
	}
	if v, ok := promtest.FindSeries(t, series, "solidifygw_children", `tenant="acme"`, `state="done"`); !ok || v != 12 {
		t.Fatalf(`solidifygw_children{tenant="acme",state="done"} = %g, want 12`, v)
	}
	if _, ok := promtest.FindSeries(t, series, "solidifygw_requests_total", `tenant="acme"`); !ok {
		t.Fatal("no solidifygw_requests_total series for tenant acme")
	}
}

// Per-tenant rate limiting, tenant isolation, and fleet-wide cancel.
func TestFleetRateLimitIsolationCancel(t *testing.T) {
	fl := fleettest.New(t, fleettest.Options{
		Daemons: 1,
		Tenants: []fleet.Tenant{
			{Name: "acme", Token: acmeToken},
			{Name: "other", Token: "other-token"},
			{Name: "slow", Token: "slow-token", RatePerSec: 0.1, Burst: 1},
		},
	})

	// The slow tenant's bucket holds one request; the refill is 1 per 10s,
	// so immediate follow-ups are limited.
	code, body := doReq(t, http.MethodGet, fl.URL+"/arrays", "slow-token", nil)
	if code != http.StatusOK {
		t.Fatalf("slow tenant's first request: %d %s", code, body)
	}
	limited := false
	for i := 0; i < 3; i++ {
		code, body = doReq(t, http.MethodGet, fl.URL+"/arrays", "slow-token", nil)
		if code == http.StatusTooManyRequests {
			wantReject(t, code, body, http.StatusTooManyRequests, fleet.CodeRateLimited)
			limited = true
			break
		}
	}
	if !limited {
		t.Fatal("slow tenant never rate limited")
	}

	// Tenant isolation: another tenant's array reads as missing.
	st := submitArray(t, fl.URL, acmeToken, sweepArray(400, []float64{0.03, 0.04}, []float64{1}))
	code, body = doReq(t, http.MethodGet, fl.URL+"/arrays/"+st.ID, "other-token", nil)
	wantReject(t, code, body, http.StatusNotFound, jobd.CodeNotFound)
	code, body = doReq(t, http.MethodGet, fl.URL+"/jobs/"+st.Children[0].ID+"/result", "other-token", nil)
	wantReject(t, code, body, http.StatusNotFound, jobd.CodeNotFound)

	// Cancel fans out: every child reaches a terminal state and the array
	// settles as canceled (long steps ensure children cannot finish first).
	code, body = doReq(t, http.MethodDelete, fl.URL+"/arrays/"+st.ID, acmeToken, nil)
	if code != http.StatusAccepted {
		t.Fatalf("DELETE /arrays/%s: %d %s", st.ID, code, body)
	}
	fleettest.WaitFor(t, "array canceled fleet-wide", 120*time.Second, func() bool {
		return arrayStatus(t, fl.URL, acmeToken, st.ID).State == jobd.StateCanceled
	})
}

// A daemon started after the gateway joins via Announce (registration +
// heartbeat), and a bad fleet token is rejected.
func TestFleetRegistrationHeartbeat(t *testing.T) {
	fl := fleettest.New(t, fleettest.Options{Daemons: -1})

	code, body := doReq(t, http.MethodGet, fl.URL+"/healthz", "", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("empty fleet /healthz: %d %s", code, body)
	}

	d := fleettest.StartDaemon(t, jobd.Config{})
	regBody, _ := json.Marshal(map[string]string{"url": d.URL})
	code, body = doReq(t, http.MethodPost, fl.URL+"/fleet/register", "wrong", regBody)
	wantReject(t, code, body, http.StatusUnauthorized, fleet.CodeUnauthorized)
	code, _ = doReq(t, http.MethodGet, fl.URL+"/fleet", "wrong", nil)
	if code != http.StatusUnauthorized {
		t.Fatalf("fleet status with bad token: %d", code)
	}

	stop := make(chan struct{})
	defer close(stop)
	go fleet.Announce(fl.URL, fleetToken, d.URL, 20*time.Millisecond, stop, nil)

	fleettest.WaitFor(t, "announced daemon to join the fleet", 30*time.Second, func() bool {
		code, _ := doReq(t, http.MethodGet, fl.URL+"/healthz", "", nil)
		return code == http.StatusOK
	})
	var fs fleet.FleetStatus
	getJSON(t, fl.URL+"/fleet", fleetToken, &fs)
	if len(fs.Daemons) != 1 || !fs.Daemons[0].Alive || !fs.Daemons[0].Registered {
		t.Fatalf("fleet status after registration: %+v", fs.Daemons)
	}

	// The joined daemon does real work end to end.
	st := submitArray(t, fl.URL, acmeToken, sweepArray(10, []float64{0.03}, []float64{1}))
	fleettest.WaitFor(t, "array done on the registered daemon", 120*time.Second, func() bool {
		return arrayStatus(t, fl.URL, acmeToken, st.ID).State == jobd.StateDone
	})
	childResult(t, fl.URL, acmeToken, st.Children[0].ID)
}

// A restarted gateway restores arrays and replicated results from its
// own store and keeps serving them with every daemon dead — replication
// makes results survive the producers.
func TestGatewayRestartServesReplicated(t *testing.T) {
	fl := fleettest.New(t, fleettest.Options{Daemons: 2})
	st := submitArray(t, fl.URL, acmeToken, sweepArray(20, []float64{0.03, 0.05}, []float64{1}))
	fleettest.WaitFor(t, "array done", 120*time.Second, func() bool {
		return arrayStatus(t, fl.URL, acmeToken, st.ID).State == jobd.StateDone
	})
	want := map[string][]byte{}
	scheds := map[string][]byte{}
	vmax := map[string]float64{}
	for _, c := range st.Children {
		want[c.ID] = childResult(t, fl.URL, acmeToken, c.ID)
		vmax[c.ID] = c.Params["vmax"]
		scheds[c.ID] = childSchedule(t, fl.URL, c.ID, vmax[c.ID])
	}

	fl.Kill(0)
	fl.Kill(1)
	fl.RestartGateway()

	code, _ := doReq(t, http.MethodGet, fl.URL+"/healthz", "", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("dead-fleet /healthz: %d, want 503", code)
	}
	restored := arrayStatus(t, fl.URL, acmeToken, st.ID)
	if restored.State != jobd.StateDone || len(restored.Children) != len(st.Children) {
		t.Fatalf("restored array: state %s, %d children", restored.State, len(restored.Children))
	}
	for id, blob := range want {
		got := childResult(t, fl.URL, acmeToken, id)
		if !bytes.Equal(got, blob) {
			t.Fatalf("child %s served different bytes after gateway restart", id)
		}
		if got := childSchedule(t, fl.URL, id, vmax[id]); !bytes.Equal(got, scheds[id]) {
			t.Fatalf("child %s served a different schedule after gateway restart", id)
		}
	}
	var list []fleet.ArrayStatus
	getJSON(t, fl.URL+"/arrays", acmeToken, &list)
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("restored array listing: %+v", list)
	}
}

// The gateway /metrics endpoint emits strict, deterministic Prometheus
// exposition from the first scrape on.
func TestGatewayMetricsStrict(t *testing.T) {
	fl := fleettest.New(t, fleettest.Options{Daemons: 1})

	code, _ := doReq(t, http.MethodGet, fl.URL+"/arrays", "bogus", nil)
	if code != http.StatusUnauthorized {
		t.Fatalf("bogus token: %d", code)
	}

	_, body1 := doReq(t, http.MethodGet, fl.URL+"/metrics", "", nil)
	series := promtest.Parse(t, string(body1))
	if v, ok := promtest.FindSeries(t, series, "solidifygw_daemons", `state="alive"`); !ok || v != 1 {
		t.Fatalf(`solidifygw_daemons{state="alive"} = %g, want 1`, v)
	}
	if v, ok := promtest.FindSeries(t, series, "solidifygw_rejects_total", `reason="unauthorized"`); !ok || v < 1 {
		t.Fatalf("unauthorized reject not counted: %g", v)
	}
	// Unchanged state scrapes byte-identically.
	_, body2 := doReq(t, http.MethodGet, fl.URL+"/metrics", "", nil)
	if !bytes.Equal(body1, body2) {
		t.Fatal("consecutive scrapes of unchanged state differ")
	}
}
