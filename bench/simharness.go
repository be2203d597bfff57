package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	phasefield "repro"
	"repro/internal/ckpt"
	"repro/internal/solver"
)

// simharness.go — helpers shared by the solver-tier workloads: building a
// simulation, timing single steps, and the correctness gate (the repo's
// bitwise contract: any parallelism, overlap mode, activity skipping and
// transport give the bytes of the plain serial run).

// benchWorkers is W, the worker count of the parallel legs: min(nproc, 4).
func benchWorkers() int {
	w := runtime.NumCPU()
	if w > 4 {
		w = 4
	}
	return w
}

// defaultSeed is the seed whose prefix states are pinned in pins.json.
const defaultSeed = 1

// verifySteps is the length of the prefix the correctness gate compares.
const verifySteps = 10

//go:embed pins.json
var pinsJSON []byte

// pinnedHash returns the pinned SHA-256 of a workload's reference state.
// Pins apply to the default seed at the calibrated sizes only.
func pinnedHash(e *env, workload string) (pin string, applies bool) {
	if e.seed != defaultSeed || e.sz != calibrated {
		return "", false
	}
	var pins map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return "", true
	}
	return pins[workload], true
}

// stateHash returns the SHA-256 of the simulation's lossless checkpoint —
// header (step, time, window shift, kernel selection, BCs) and every field
// value. On a non-root process of a distributed run it contributes to the
// collective gather and returns "".
func stateHash(s *phasefield.Simulation) (string, error) {
	if !s.IsRoot() {
		return "", s.WriteCheckpoint(nil, ckpt.Float64)
	}
	h := sha256.New()
	if err := s.WriteCheckpoint(h, ckpt.Float64); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashBytes is the SHA-256 of a result blob, hex encoded.
func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// hashReader is the SHA-256 of a stream.
func hashReader(r io.Reader) (string, error) {
	h := sha256.New()
	if _, err := io.Copy(h, r); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// referenceConfig turns a workload's configuration into the reference the
// bitwise contract is stated against: one worker, no activity skipping, no
// communication hiding, in-process transport. Domain, decomposition,
// seed, window and physics stay.
func referenceConfig(cfg phasefield.Config) phasefield.Config {
	cfg.Parallelism = 1
	cfg.DisableActiveSweep = true
	cfg.Overlap = solver.OverlapNone
	cfg.Distributed = nil
	return cfg
}

// newSim builds and initializes a simulation: the planar front when front
// is set, the production Voronoi setup otherwise.
func newSim(cfg phasefield.Config, front bool) (*phasefield.Simulation, error) {
	s, err := phasefield.New(cfg)
	if err != nil {
		return nil, err
	}
	if front {
		err = s.InitFront()
	} else {
		err = s.InitProduction()
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// prefixHash runs a fresh simulation of cfg for steps timesteps and
// returns the hash of the state reached.
func prefixHash(cfg phasefield.Config, front bool, steps int) (string, error) {
	s, err := newSim(cfg, front)
	if err != nil {
		return "", err
	}
	defer s.Close()
	s.Run(steps)
	return stateHash(s)
}

// verifyPrefix is the correctness gate of a single-process solver
// workload: the state after verifySteps under the workload's configuration
// must equal the reference configuration's, and for the default seed the
// pinned hash.
func verifyPrefix(e *env, workload string, cfg phasefield.Config, front bool) error {
	sp := e.tr.start(e.root, "solver", "verify.prefix", -1)
	got, err := prefixHash(cfg, front, verifySteps)
	sp.finish()
	if err != nil {
		return err
	}
	sp = e.tr.start(e.root, "solver", "verify.reference", -1)
	want, err := prefixHash(referenceConfig(cfg), front, verifySteps)
	sp.finish()
	if err != nil {
		return err
	}
	e.check(got == want, "%s: %d-step prefix %s differs from the serial reference %s", workload, verifySteps, got, want)
	checkPin(e, workload, want)
	return nil
}

// checkPin compares a verified state hash with the pinned one, when a pin
// applies to this run.
func checkPin(e *env, workload, got string) {
	pin, applies := pinnedHash(e, workload)
	switch {
	case !applies:
	case pin == "":
		e.notes = append(e.notes, fmt.Sprintf("no pin for %s yet: %s", workload, got))
	default:
		e.check(got == pin, "%s: reference state %s differs from the pinned %s", workload, got, pin)
	}
}

// timedSteps advances s one step at a time until the deadline passes and
// at least minSteps have run, and returns every step's wall time in
// seconds. Each step is one span; opBase offsets the operation ids so that
// several legs of one run do not collide. A kernel fault panics out of Run
// (the library's fail-fast path) and ends the process without a result.
func timedSteps(e *env, s *phasefield.Simulation, deadline time.Time, minSteps, opBase int) []float64 {
	var durs []float64
	var prevEnd time.Time
	for i := 0; i < minSteps || time.Now().Before(deadline); i++ {
		sp := e.tr.start(e.root, "solver", "step", opBase+i)
		t0 := time.Now()
		s.Run(1)
		d := time.Since(t0)
		sp.finish()
		if !prevEnd.IsZero() {
			e.gap(float64(t0.Sub(prevEnd)) / float64(time.Millisecond))
		}
		prevEnd = t0.Add(d)
		durs = append(durs, d.Seconds())
	}
	e.attempt(len(durs), 0)
	return durs
}

// worthStarting reports whether an operation that last took `last` should
// still be started before the deadline: coarse operations (a burst, an
// array) stop once less than half of one fits, so that a run overshoots
// its budget by at most half an operation.
func worthStarting(deadline time.Time, last time.Duration) bool {
	return time.Until(deadline) > last/2
}

// recordSteps turns a leg's step durations into the run's samples: every
// step is one operation, and the leg's ten equal segments are its rate
// samples.
func recordSteps(e *env, durs []float64, cells int) {
	for _, d := range durs {
		e.op(d * 1e3)
	}
	for _, r := range segmentRates(durs, float64(cells)/1e6, 10) {
		e.rate(r)
	}
}
