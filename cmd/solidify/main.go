// Command solidify runs a directional ternary-eutectic solidification
// simulation of the Ag-Al-Cu system (the paper's production scenario,
// Fig. 2): Voronoi solid nuclei at the bottom of a melt-filled domain, a
// frozen temperature gradient pulled upward at constant velocity, the
// moving-window technique, and periodic interface-mesh output.
//
// Production runs are driven by a JSON schedule (-schedule): nucleation
// bursts, pull-velocity/gradient/Δt ramps, time-varying boundary conditions
// (setbc events: wall kind switches and Dirichlet value ramps) and
// periodic checkpoints, applied between timesteps.
// Several schedule files compose into one run — pass them comma-separated
// and they merge deterministically (same-step ties fire in file order;
// conflicting events are rejected). A stopped run resumes from its last
// checkpoint with -restore, continuing the schedule at the checkpointed
// position with the checkpointed kernel variant; checkpoints carry the
// active per-face BC state, so a restart mid-BC-ramp resumes with
// bit-identical wall values.
//
// A run spreads its ranks over several machines with -peers/-proc: start
// the same command line on every host, each with its own -proc index into
// the shared -peers list; the ranks are halved out over the processes and
// joined by the TCP transport, and checkpoints, meshes and console output
// come from process 0. A checkpoint taken on one rank grid resumes on a
// different-sized cluster with -reshard (elastic restart); lossless
// (float64) checkpoints resume bit-identically.
//
// Usage:
//
//	solidify -nx 64 -ny 64 -nz 128 -steps 2000 -px 2 -py 2 \
//	         -out out/ -meshevery 500 -ckpt out/state.pfcp \
//	         -schedule castbench.json,coldwall.json
//	solidify -restore out/state_001000.pfcp -schedule castbench.json -steps 1000
//	solidify -px 2 -py 2 -peers hostA:7000,hostB:7000 -proc 0 ...   # on host A
//	solidify -px 2 -py 2 -peers hostA:7000,hostB:7000 -proc 1 ...   # on host B
//	solidify -restore out/state.pfcp -reshard 4x2 -peers ... -proc N ...
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/mesh"
	"repro/internal/schedule"
)

func main() {
	nx := flag.Int("nx", 64, "domain cells in x")
	ny := flag.Int("ny", 64, "domain cells in y")
	nz := flag.Int("nz", 128, "domain cells in z (growth direction)")
	px := flag.Int("px", 1, "blocks (worker ranks) in x")
	py := flag.Int("py", 1, "blocks in y")
	steps := flag.Int("steps", 1000, "timesteps")
	report := flag.Int("report", 100, "progress report interval")
	meshEvery := flag.Int("meshevery", 0, "write interface meshes every N steps (0 = off)")
	meshTris := flag.Int("meshtris", 20000, "simplification target per mesh")
	outDir := flag.String("out", ".", "output directory")
	ckptPath := flag.String("ckpt", "", "write a final checkpoint to this path")
	window := flag.Bool("window", true, "enable the moving window")
	par := flag.Int("par", 0, "total sweep workers for intra-block parallelism (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 1, "Voronoi seed")
	schedPath := flag.String("schedule", "", "JSON production schedule(s), comma-separated and composed in order (bursts, ramps, BC events, checkpoints)")
	recordPath := flag.String("record", "", "write the applied-event audit log as a replayable schedule JSON file at exit")
	restorePath := flag.String("restore", "", "resume from this checkpoint instead of a fresh init")
	reshard := flag.String("reshard", "", "on -restore, re-decompose the checkpoint onto this rank grid (PXxPY or PXxPYxPZ) before resuming — elastic restart on a different-sized cluster")
	peers := flag.String("peers", "", "comma-separated listen addresses of every process in a network-distributed run, indexed by -proc; empty runs all ranks in this process")
	proc := flag.Int("proc", 0, "this process' index into -peers")
	pprofAddr := flag.String("pprof", "", "listen address for net/http/pprof profiling endpoints during the run (empty = off; bind to localhost)")
	flag.Parse()

	if *pprofAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, dbg); err != nil {
				fmt.Fprintln(os.Stderr, "solidify: pprof listener:", err)
			}
		}()
	}

	var dist *phasefield.DistConfig
	if *peers != "" {
		var addrs []string
		for _, a := range strings.Split(*peers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		dist = &phasefield.DistConfig{Proc: *proc, Peers: addrs}
	}
	// Console and file output belong to process 0; the library gates the
	// collective outputs (checkpoints, meshes) itself.
	root := dist == nil || dist.Proc == 0

	var sched *schedule.Schedule
	if *schedPath != "" {
		var paths []string
		for _, p := range strings.Split(*schedPath, ",") {
			if p = strings.TrimSpace(p); p != "" {
				paths = append(paths, p)
			}
		}
		var err error
		if sched, err = phasefield.LoadSchedules(paths...); err != nil {
			fatal(err)
		}
	}

	var sim *phasefield.Simulation
	var err error
	if *restorePath != "" {
		// Start from the production defaults (µ-overlap) — the domain,
		// decomposition and kernel variant come from the checkpoint
		// header.
		cfg := phasefield.DefaultConfig(0, 0, 0)
		cfg.MovingWindow = *window
		cfg.Parallelism = *par
		cfg.Distributed = dist
		if *reshard != "" {
			rx, ry, rz, perr := parseGrid(*reshard)
			if perr != nil {
				fatal(perr)
			}
			sim, err = phasefield.RestoreResharded(*restorePath, rx, ry, rz, cfg)
		} else {
			sim, err = phasefield.Restore(*restorePath, cfg)
		}
		if err != nil {
			fatal(err)
		}
		if root {
			fmt.Printf("solidify: restored %s at step %d (t=%g, window shift %d, schedule pos %d, dt=%g)\n",
				*restorePath, sim.Step(), sim.Time(), sim.WindowShift(), sim.SchedulePos(), sim.Params().Dt)
		}
	} else {
		if *reshard != "" {
			fatal(fmt.Errorf("-reshard requires -restore"))
		}
		cfg := phasefield.DefaultConfig(*nx, *ny, *nz)
		cfg.PX, cfg.PY = *px, *py
		cfg.MovingWindow = *window
		cfg.Parallelism = *par
		cfg.Seed = *seed
		cfg.Distributed = dist
		if sim, err = phasefield.New(cfg); err != nil {
			fatal(err)
		}
		if err := sim.InitProduction(); err != nil {
			fatal(err)
		}
		if root {
			fmt.Printf("solidify: %dx%dx%d cells, %d ranks on %d process(es), dt=%g\n",
				*nx, *ny, *nz, (*px)*(*py), sim.NumProcs(), sim.Params().Dt)
		}
	}

	names := phasefield.PhaseNames()

	schedOpt := phasefield.ScheduleOptions{
		CheckpointPath: filepath.Join(*outDir, "state_%06d.pfcp"),
	}
	if root {
		schedOpt.Log = func(msg string) { fmt.Println("  " + msg) }
	}

	start := sim.Step()
	for done := 0; done < *steps; {
		chunk := *report
		if done+chunk > *steps {
			chunk = *steps - done
		}
		m := sim.ResetAndMeasure(func() {
			if err := sim.RunSchedule(sched, chunk, schedOpt); err != nil {
				fatal(err)
			}
		})
		done = sim.Step() - start
		// The statistics are collectives — every process must compute
		// them even though only the root prints.
		fr := sim.PhaseFractions()
		solid, front := sim.SolidFraction(), sim.FrontHeight()
		if root {
			fmt.Printf("step %6d  t=%8.2f  solid=%.3f  front=z%-4d  %.2f MLUP/s  [%s %.2f | %s %.2f | %s %.2f]\n",
				sim.Step(), sim.Time(), solid, front, m.MLUPs(),
				names[0], fr[0], names[1], fr[1], names[2], fr[2])
		}

		if *meshEvery > 0 && done%*meshEvery == 0 {
			writeMeshes(sim, *outDir, *meshTris, done, names)
		}
	}

	if *meshEvery > 0 {
		writeMeshes(sim, *outDir, *meshTris, *steps, names)
	}
	if root {
		if tot := sim.TelemetryTotals(); tot.Steps > 0 {
			fmt.Printf("phase totals over %d steps: wall %v | phi %v  mu %v | halo pack %v transfer %v wait %v unpack %v | sched %v ckpt %v | %.2f MLUP/s, %d halo bytes\n",
				tot.Steps, tot.Wall.Round(time.Millisecond),
				tot.PhiKernel.Round(time.Millisecond), tot.MuKernel.Round(time.Millisecond),
				tot.HaloPack.Round(time.Millisecond), tot.HaloTransfer.Round(time.Millisecond),
				tot.HaloWait.Round(time.Millisecond), tot.HaloUnpack.Round(time.Millisecond),
				tot.Sched.Round(time.Millisecond), tot.Ckpt.Round(time.Millisecond),
				tot.MLUPs(sim.GlobalCells()), tot.HaloBytes)
		}
		if reconnects, replayed, ok := sim.NetStats(); ok {
			fmt.Printf("transport: %d reconnect(s), %d frame(s) replayed\n", reconnects, replayed)
		}
	}
	if *ckptPath != "" {
		if err := sim.Checkpoint(*ckptPath); err != nil {
			fatal(err)
		}
		if root {
			fmt.Println("checkpoint written to", *ckptPath)
		}
	}
	if *recordPath != "" && root {
		blob, err := sim.AppliedScheduleJSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*recordPath, blob, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("applied schedule (%d events) recorded to %s\n", len(sim.AppliedEvents()), *recordPath)
	}
}

func writeMeshes(sim *phasefield.Simulation, dir string, target, step int, names [phasefield.NumPhases]string) {
	meshes := sim.ExtractInterfaces()
	for a, m := range meshes {
		if m.NumTris() == 0 {
			continue
		}
		if target > 0 && m.NumTris() > target {
			mesh.Simplify(m, mesh.SimplifyOptions{TargetTris: target})
		}
		path := filepath.Join(dir, fmt.Sprintf("%s_step%06d.stl", names[a], step))
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		err = m.WriteSTL(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  mesh %s: %d triangles\n", path, m.NumTris())
	}
}

// parseGrid parses a rank grid like "2x2" or "2x2x1" (PZ defaults to 1).
func parseGrid(s string) (px, py, pz int, err error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 2 && len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("bad rank grid %q (want PXxPY or PXxPYxPZ)", s)
	}
	dims := [3]int{1, 1, 1}
	for i, p := range parts {
		if dims[i], err = strconv.Atoi(p); err != nil || dims[i] < 1 {
			return 0, 0, 0, fmt.Errorf("bad rank grid %q", s)
		}
	}
	return dims[0], dims[1], dims[2], nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "solidify:", err)
	os.Exit(1)
}
