package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	phasefield "repro"
	"repro/internal/ckpt"
	"repro/internal/mesh"
)

// w_io.go — io_cycle: a solidification front cycled through real files.
// Each cycle runs a few steps, writes a lossless checkpoint, closes the
// simulation and restores it from the file; every few cycles it also
// writes the interface meshes — the paper's data-reduction output path
// (extract, simplify to a triangle budget, STL). The steps take about half
// the time; ckpt writes sit beside ckpt reads, and mesh output beside both.

type ioWorkload struct {
	sim      *phasefield.Simulation
	cfg      phasefield.Config
	dir      string
	baseStep int
	// gateHash is the hash of the checkpoint file written at the end of
	// cycle gateCycles, for verify.
	gateHash string
}

// gateCycles is how many restore cycles the correctness gate spans.
const gateCycles = 3

func (w *ioWorkload) setup(e *env) error {
	cfg := phasefield.DefaultConfig(e.sz.IONX, e.sz.IONY, e.sz.IONZ)
	cfg.Parallelism = benchWorkers()
	cfg.Seed = e.seed
	w.cfg = cfg
	sp := e.tr.start(e.root, "solver", "init", -1)
	defer sp.finish()
	var err error
	if w.sim, err = newSim(cfg, true); err != nil {
		return err
	}
	w.sim.Run(warmSteps)
	w.baseStep = w.sim.Step()
	w.dir, err = os.MkdirTemp(e.tmp, "io-")
	return err
}

// writeFile creates path and streams write's output into it through a
// buffer, reporting the first error of write, flush and close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeCheckpoint writes the simulation's checkpoint to path.
func writeCheckpoint(s *phasefield.Simulation, path string, prec ckpt.Precision) error {
	return writeFile(path, func(w io.Writer) error { return s.WriteCheckpoint(w, prec) })
}

// meshStats describes one interface-mesh output.
type meshStats struct {
	extractMs, simplifyMs, writeMs float64
	trisIn, trisOut                int
	bytes                          int64
}

// writeMeshes is the output path: extract the interface mesh of every
// solid phase, simplify each to targetTris, write each as STL under dir.
func writeMeshes(e *env, parent *span, s *phasefield.Simulation, dir string, targetTris, opID int) (meshStats, error) {
	var st meshStats
	sp := e.tr.start(parent, "mesh", "extract", opID)
	t0 := time.Now()
	meshes := s.ExtractInterfaces()
	st.extractMs = msSince(t0)
	sp.finish()
	for phase, m := range meshes {
		st.trisIn += m.NumTris()
		sp = e.tr.start(parent, "mesh", "simplify", opID)
		t0 = time.Now()
		if targetTris > 0 && m.NumTris() > targetTris {
			mesh.Simplify(m, mesh.SimplifyOptions{TargetTris: targetTris})
		}
		st.simplifyMs += msSince(t0)
		sp.finish()
		st.trisOut += m.NumTris()

		sp = e.tr.start(parent, "mesh", "write_stl", opID)
		t0 = time.Now()
		path := filepath.Join(dir, fmt.Sprintf("interface_%d.stl", phase))
		err := writeFile(path, m.WriteSTL)
		st.writeMs += msSince(t0)
		sp.finish()
		if err != nil {
			return st, err
		}
		if fi, err := os.Stat(path); err == nil {
			st.bytes += fi.Size()
		}
	}
	return st, nil
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

func (w *ioWorkload) run(e *env, budget time.Duration) error {
	cells := w.sim.GlobalCells()
	deadline := time.Now().Add(budget)
	path := filepath.Join(w.dir, "state.ckpt")
	var outputs, groupWall []float64
	var ckptBytes int64
	groupStart := time.Now()
	var prevEnd time.Time
	minCycles := 4 * e.sz.IOOutputEvery
	cycles := 0
	for ; cycles < minCycles || time.Now().Before(deadline); cycles++ {
		cyc := e.tr.start(e.root, "bench", "cycle", cycles)
		if !prevEnd.IsZero() {
			e.gap(msSince(prevEnd))
		}
		sp := e.tr.start(cyc, "solver", "step", cycles)
		w.sim.Run(e.sz.IOStepsPerCycle)
		sp.finish()

		t0 := time.Now()
		sp = e.tr.start(cyc, "ckpt", "checkpoint", cycles)
		err := writeCheckpoint(w.sim, path, ckpt.Float64)
		sp.finish()
		if err != nil {
			return err
		}
		sp = e.tr.start(cyc, "solver", "close", cycles)
		w.sim.Close()
		sp.finish()
		sp = e.tr.start(cyc, "ckpt", "restore", cycles)
		w.sim, err = phasefield.Restore(path, w.cfg)
		sp.finish()
		if err != nil {
			return err
		}
		e.op(msSince(t0))

		if cycles+1 == gateCycles {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			w.gateHash, err = hashReader(f)
			f.Close()
			if err != nil {
				return err
			}
			if fi, err := os.Stat(path); err == nil {
				ckptBytes = fi.Size()
			}
		}
		if (cycles+1)%e.sz.IOOutputEvery == 0 {
			t0 = time.Now()
			if _, err := writeMeshes(e, cyc, w.sim, w.dir, e.sz.IOTargetTris, cycles); err != nil {
				return err
			}
			outputs = append(outputs, msSince(t0))
			// One rate sample per output period: the steps of the period
			// over everything the period cost, I/O included.
			groupWall = append(groupWall, time.Since(groupStart).Seconds())
			groupStart = time.Now()
		}
		cyc.finish()
		prevEnd = time.Now()
	}
	e.attempt(cycles, 0)
	work := float64(cells*e.sz.IOStepsPerCycle*e.sz.IOOutputEvery) / 1e6
	for _, wall := range groupWall {
		e.rate(work / wall)
	}
	e.extra("ckpt_cycle_ms_p50", fromSamples(e.ops, "ms"))
	e.extra("output_ms_p50", fromSamples(outputs, "ms"))
	e.extra("ckpt_bytes", Metric{Value: float64(ckptBytes), Unit: "count"})
	e.extra("cycles", Metric{Value: float64(cycles), Unit: "count"})
	return nil
}

// verify: the state after gateCycles run→checkpoint→close→restore cycles
// must equal, byte for byte, the uninterrupted serial reference run of the
// same number of steps. The checkpoint file itself is the compared
// artifact.
func (w *ioWorkload) verify(e *env) error {
	steps := w.baseStep + gateCycles*e.sz.IOStepsPerCycle
	sp := e.tr.start(e.root, "solver", "verify.reference", -1)
	want, err := prefixHash(referenceConfig(w.cfg), true, steps)
	sp.finish()
	if err != nil {
		return err
	}
	e.check(w.gateHash == want, "io_cycle: state after %d restore cycles %s differs from the uninterrupted run %s",
		gateCycles, w.gateHash, want)
	checkPin(e, "io_cycle", want)
	return nil
}

func (w *ioWorkload) close() {
	if w.sim != nil {
		w.sim.Close()
		w.sim = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}
