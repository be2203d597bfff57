package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/jobd"
)

// w_daemon.go — daemon_smalljobs: the examples/sweep job template, sized so
// that a bare run of one job takes a few tens of milliseconds, through an
// in-process jobd.Server (MaxConcurrent 2, Budget nproc, real store
// directory) behind a loopback HTTP listener. The solver is deliberately
// small: the control plane, the store spill and HTTP dominate.
//
// Phase A is a closed loop with one client — each job is submitted when
// the previous one's result has been read — and gives the latency samples.
// Phase B submits bursts of BurstN jobs at once from at most nproc
// connections, as a sweep arrives, and gives the throughput samples.

type daemonWorkload struct {
	d      *daemon
	specs  []jobd.Spec
	blobs  [][]byte // JSON bodies of specs
	seen   map[string]string
	client *http.Client
}

// daemonSpecsVmax × daemonSpecsSeeds distinct job specs rotate through the
// phases; each is checked against its own direct run.
const (
	daemonSpecsVmax  = 3
	daemonSpecsSeeds = 2
)

func daemonConfig() jobd.Config {
	return jobd.Config{MaxConcurrent: 2, Budget: runtime.NumCPU(), ReportEvery: 5}
}

// marshalSpecs expands the sweep grid into specs and their request bodies.
func marshalSpecs(e *env, nVmax, nSeeds int) ([]jobd.Spec, [][]byte, error) {
	as := sweepArray(e, nVmax, nSeeds)
	specs, err := as.Expand()
	if err != nil {
		return nil, nil, err
	}
	blobs := make([][]byte, len(specs))
	for i, sp := range specs {
		if blobs[i], err = json.Marshal(sp); err != nil {
			return nil, nil, err
		}
	}
	return specs, blobs, nil
}

func (w *daemonWorkload) setup(e *env) error {
	sp := e.tr.start(e.root, "jobd", "boot", -1)
	defer sp.finish()
	var err error
	if w.specs, w.blobs, err = marshalSpecs(e, daemonSpecsVmax, daemonSpecsSeeds); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.tmp, "jobd-")
	if err != nil {
		return err
	}
	if w.d, err = startDaemon(daemonConfig(), dir); err != nil {
		return err
	}
	w.client = newClient(runtime.NumCPU())
	w.seen = map[string]string{}
	// One job through the whole path before anything is timed: connection
	// set-up, first store write, lazily built solver state.
	s, err := runJob(e, sp, w.client, w.d.url, w.blobs[0], -1, false)
	if err != nil {
		return err
	}
	if !s.ok {
		return fmt.Errorf("warm-up job ended %s", s.state)
	}
	return nil
}

// note records a finished job: its outcome and, for the correctness gate,
// the result hash seen for its spec (every repeat must agree).
func (w *daemonWorkload) note(e *env, specIdx int, s jobSample, err error) {
	if err != nil || !s.ok {
		e.attempt(1, 1)
		if err != nil {
			e.mu.Lock()
			e.notes = append(e.notes, "job failed: "+err.Error())
			e.mu.Unlock()
		}
		return
	}
	e.attempt(1, 0)
	key := specKey(w.specs[specIdx])
	e.mu.Lock()
	prev, dup := w.seen[key]
	if !dup {
		w.seen[key] = s.resultHash
	}
	e.mu.Unlock()
	if dup {
		e.check(prev == s.resultHash, "daemon_smalljobs: %s returned two different results", key)
	}
}

func (w *daemonWorkload) run(e *env, budget time.Duration) error {
	start := time.Now()
	traced := e.tr != nil
	// Phase A: closed loop, one client.
	var stages []jobSample
	var prevEnd time.Time
	for i := 0; i < 6 || time.Now().Before(start.Add(budget*6/10)); i++ {
		idx := i % len(w.blobs)
		if !prevEnd.IsZero() {
			e.gap(msSince(prevEnd))
		}
		op := e.tr.start(e.root, "bench", "job", i)
		s, err := runJob(e, op, w.client, w.d.url, w.blobs[idx], i, traced)
		op.finish()
		prevEnd = time.Now()
		w.note(e, idx, s, err)
		if err == nil && s.ok {
			e.op(s.doneMs)
			stages = append(stages, s)
		}
	}
	closedLoop := append([]float64(nil), e.ops...)

	// Phase B: bursts. Every client submits its share at once, then waits
	// for its jobs in submission order (the daemon starts them in that
	// order) and fetches each result.
	clients := runtime.NumCPU()
	if clients > e.sz.BurstN {
		clients = e.sz.BurstN
	}
	var perBurst []float64
	opBase := 1_000_000
	var lastBurst time.Duration
	for b := 0; b < 1 || worthStarting(start.Add(budget), lastBurst); b++ {
		burst := e.tr.start(e.root, "bench", "burst", b)
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				lane := e.tr.start(burst, "bench", "client", c).onLane(c + 1)
				defer lane.finish()
				type pending struct {
					idx, k int
					s      jobSample
					err    error
				}
				var mine []pending
				for k := c; k < e.sz.BurstN; k += clients {
					idx := k % len(w.blobs)
					s, err := submitJob(e, lane, w.client, w.d.url, w.blobs[idx], opBase+k)
					mine = append(mine, pending{idx, k, s, err})
				}
				for i := range mine {
					p := &mine[i]
					if p.err == nil {
						p.err = awaitJob(e, lane, w.client, w.d.url, &p.s, opBase+p.k)
					}
					w.note(e, p.idx, p.s, p.err)
				}
			}(c)
		}
		wg.Wait()
		lastBurst = time.Since(t0)
		wall := lastBurst.Seconds()
		burst.finish()
		opBase += e.sz.BurstN
		perBurst = append(perBurst, float64(e.sz.BurstN)/wall)
		e.rate(float64(e.sz.BurstN) * jobCells(w.specs[0]) / wall / 1e6)
	}

	e.extra("job_done_ms_p50", fromSamples(closedLoop, "ms"))
	e.extra("job_done_ms_p90", Metric{Value: percentile(closedLoop, 90), Unit: "ms", N: len(closedLoop),
		Note: fmt.Sprintf("%d samples beyond", samplesBeyond(closedLoop, 90))})
	e.extra("jobs_per_s", fromSamples(perBurst, "1/s"))
	for name, m := range stageMedians("jobd.", stages) {
		e.extra(name, m)
	}
	return nil
}

// stageMedians returns the per-stage medians of a set of jobs, named
// under prefix. The daemon-side stages need the jobs' trace marks
// (fetchStages); jobs without them contribute the client-side stages only.
func stageMedians(prefix string, jobs []jobSample) map[string]Metric {
	cols := map[string][]float64{}
	for _, s := range jobs {
		cols["submit_ms_p50"] = append(cols["submit_ms_p50"], s.submitMs)
		cols["result_fetch_ms_p50"] = append(cols["result_fetch_ms_p50"], s.fetchMs)
		cols["job_done_ms_p50"] = append(cols["job_done_ms_p50"], s.doneMs)
		if s.staged {
			cols["queue_wait_ms_p50"] = append(cols["queue_wait_ms_p50"], s.queueWaitMs)
			cols["first_step_ms_p50"] = append(cols["first_step_ms_p50"], s.firstStepMs)
			cols["run_ms_p50"] = append(cols["run_ms_p50"], s.runMs)
			cols["spill_ms_p50"] = append(cols["spill_ms_p50"], s.spillMs)
		}
	}
	out := map[string]Metric{}
	for name, xs := range cols {
		out[prefix+name] = fromSamples(xs, "ms")
	}
	return out
}

// verify: every distinct spec's daemon result must equal the direct
// phasefield run of that spec.
func (w *daemonWorkload) verify(e *env) error {
	ref, err := referenceHashes(e, w.specs)
	if err != nil {
		return err
	}
	for _, sp := range w.specs {
		key := specKey(sp)
		got, ok := w.seen[key]
		if !ok {
			continue // a very short run may not reach every spec
		}
		e.check(got == ref[key], "daemon_smalljobs: %s result %s differs from the direct run %s", key, got, ref[key])
	}
	checkPin(e, "daemon_smalljobs", ref[specKey(w.specs[0])])
	return nil
}

func (w *daemonWorkload) close() {
	if w.client != nil {
		closeClient(w.client)
		w.client = nil
	}
	w.d.close()
	w.d = nil
}
