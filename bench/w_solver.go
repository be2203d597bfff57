package main

import (
	"fmt"
	"time"

	phasefield "repro"
)

// w_solver.go — the two single-process solver workloads. They load the
// same solver and kernels layers in opposite ways, so that a change which
// wins on one by taxing the other shows as a loss there.

// warmSteps spins up the worker pool, fills the comm buffers and lets the
// activity tracker derive its first map before anything is timed.
const warmSteps = 2

// denseWorkload is dense_interface: one cubic block, every cell interface,
// nothing sleeps. A 1-worker leg (the plain serial baseline of the same
// problem), then a W-worker leg; the W-worker leg is what the end-to-end
// metrics report, the pair gives the parallel efficiency.
type denseWorkload struct {
	w1, wN *phasefield.Simulation
	cfgN   phasefield.Config
}

func (w *denseWorkload) config(e *env, workers int) phasefield.Config {
	n := e.sz.DenseEdge
	cfg := phasefield.DefaultConfig(n, n, n) // VarShortcut, OverlapMu
	cfg.Parallelism = workers
	cfg.Seed = e.seed
	return cfg
}

func (w *denseWorkload) setup(e *env) error {
	w.cfgN = w.config(e, benchWorkers())
	var err error
	sp := e.tr.start(e.root, "solver", "init", 1)
	if w.w1, err = newSim(w.config(e, 1), true); err == nil {
		w.w1.Run(warmSteps)
	}
	sp.finish()
	if err != nil {
		return err
	}
	sp = e.tr.start(e.root, "solver", "init", benchWorkers())
	if w.wN, err = newSim(w.cfgN, true); err == nil {
		w.wN.Run(warmSteps)
	}
	sp.finish()
	return err
}

func (w *denseWorkload) run(e *env, budget time.Duration) error {
	start := time.Now()
	cells := w.wN.GlobalCells()
	// 30% of the budget on the serial leg: enough steps for a steady
	// median, the rest buys tail samples on the leg that is reported.
	d1 := timedSteps(e, w.w1, start.Add(budget*3/10), 5, 0)
	dN := timedSteps(e, w.wN, start.Add(budget), 10, 1_000_000)
	recordSteps(e, dN, cells)

	r1 := segmentRates(d1, float64(cells)/1e6, 10)
	rN := segmentRates(dN, float64(cells)/1e6, 10)
	W := float64(benchWorkers())
	e.extra("mlups_w1", fromSamples(r1, "MLUP/s"))
	e.extra("mlups_wN", fromSamples(rN, "MLUP/s"))
	e.extra("parallel_eff", Metric{Value: median(rN) / (W * median(r1)), Unit: "ratio",
		Note: fmt.Sprintf("W=%d, base = serial leg of the same block", benchWorkers())})
	return nil
}

func (w *denseWorkload) verify(e *env) error {
	return verifyPrefix(e, "dense_interface", w.cfgN, true)
}

func (w *denseWorkload) close() {
	for _, s := range []*phasefield.Simulation{w.w1, w.wN} {
		if s != nil {
			s.Close()
		}
	}
	w.w1, w.wN = nil, nil
}

// sparseWorkload is sparse_column: production Voronoi nuclei at the foot
// of a tall melt column with the moving window on. Some 15–20% of the
// slices are awake; the activity tracker, the bulk shortcuts and the
// window shift do the work. The window trigger sits just above the nuclei
// so the front reaches it within the run and the window scrolls.
type sparseWorkload struct {
	sim    *phasefield.Simulation
	cfg    phasefield.Config
	shift0 int
}

func (w *sparseWorkload) setup(e *env) error {
	cfg := phasefield.DefaultConfig(e.sz.SparseNX, e.sz.SparseNY, e.sz.SparseNZ)
	cfg.MovingWindow = true
	// Nuclei are 2ε = 8 cells high; trigger at slice 9.
	cfg.WindowFraction = 9.5 / float64(e.sz.SparseNZ)
	cfg.Parallelism = benchWorkers()
	cfg.Seed = e.seed // feeds the Voronoi nuclei
	w.cfg = cfg
	sp := e.tr.start(e.root, "solver", "init", -1)
	defer sp.finish()
	var err error
	if w.sim, err = newSim(cfg, false); err != nil {
		return err
	}
	w.sim.Run(e.sz.SparseWarm)
	w.shift0 = w.sim.WindowShift()
	return nil
}

func (w *sparseWorkload) run(e *env, budget time.Duration) error {
	cells := w.sim.GlobalCells()
	var active []float64
	start := time.Now()
	// Leg by leg so the active fraction is sampled along the run without a
	// call per step.
	var durs []float64
	for leg := 0; leg < 10; leg++ {
		d := timedSteps(e, w.sim, start.Add(budget*time.Duration(leg+1)/10), 2, len(durs))
		durs = append(durs, d...)
		active = append(active, w.sim.ActiveFraction())
	}
	recordSteps(e, durs, cells)
	e.extra("active_fraction", fromSamples(active, "ratio"))
	e.extra("window_shifts", Metric{Value: float64(w.sim.WindowShift() - w.shift0), Unit: "count",
		Note: "cells scrolled during the timed part"})
	return nil
}

func (w *sparseWorkload) verify(e *env) error {
	return verifyPrefix(e, "sparse_column", w.cfg, false)
}

func (w *sparseWorkload) close() {
	if w.sim != nil {
		w.sim.Close()
		w.sim = nil
	}
}
