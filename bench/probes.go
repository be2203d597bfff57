package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	phasefield "repro"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/jobd"
	"repro/internal/jobd/store"
	"repro/internal/kernels"
	"repro/internal/perfmodel"
	"repro/internal/solver"
)

// probes.go — the per-layer probes of a traced run. The driver's protocol
// wants every per-layer metric from every traced run, whatever the
// workload, so the probes are workload-independent: each measures one
// layer through its public functions on a small fixed state, the same in
// every run. The workload's own breakdown (span self times, comm shares,
// daemon stages) goes to the detail file as extras instead.

// probeSet collects the probes' metrics.
type probeSet struct {
	e   *env
	out map[string]Metric
	err []string
}

func (p *probeSet) set(name string, m Metric) {
	d, ok := defOf(perLayer, name)
	if !ok {
		panic("bench: probe metric " + name + " is not in the catalogue")
	}
	m.Unit = d.Unit
	p.out[name] = clean(m)
}

func (p *probeSet) value(name string, v float64, note string) {
	p.set(name, Metric{Value: v, Note: note})
}

func (p *probeSet) samples(name string, xs []float64) {
	m := fromSamples(xs, "")
	p.set(name, m)
}

// fail records a probe that could not run; its metrics stay at zero and
// the reason is printed and stored.
func (p *probeSet) fail(layer string, err error) {
	p.err = append(p.err, layer+": "+err.Error())
}

// runProbes runs every layer's probe and returns the complete per-layer
// metric set (names missing after a failed probe are reported as 0 with a
// note).
func runProbes(e *env) map[string]Metric {
	t0 := time.Now()
	p := &probeSet{e: e, out: map[string]Metric{}}
	root := e.tr.start(nil, "bench", "probes", -1)
	e.root = root
	step := func(layer string, fn func() error) {
		sp := e.tr.start(root, layer, "probe."+layer, -1)
		if err := fn(); err != nil {
			p.fail(layer, err)
		}
		sp.finish()
		runtime.GC()
	}
	step("host", p.host)
	step("kernels", p.kernels)
	step("solver", p.solver)
	step("comm", p.comm)
	step("ckpt", p.ckptMesh)
	step("store", p.store)
	step("jobd", p.jobd)
	step("fleet", p.fleet)
	root.finish()

	p.value("bench.span_cost_ns", spanCostNs(), "one span start+finish")
	p.value("bench.probe_s", time.Since(t0).Seconds(), "wall time of the probe suite")
	for _, d := range perLayer {
		if _, ok := p.out[d.Name]; !ok {
			p.out[d.Name] = Metric{Unit: d.Unit, Note: "not measured in this run"}
		}
	}
	for _, msg := range p.err {
		e.notes = append(e.notes, "probe failed: "+msg)
		e.attempt(1, 1)
	}
	return p.out
}

// --- host -----------------------------------------------------------------

func (p *probeSet) host() error {
	llc := llcBytes()
	arr := triadArrayBytes(llc, p.e.sz.TriadMaxMB)
	workers := benchWorkers()
	sp := p.e.tr.start(p.e.root, "host", "stream_triad", -1)
	gbs := streamTriad(arr, workers, 3)
	sp.finish()
	p.value("host.stream_triad_gbs", gbs,
		fmt.Sprintf("best of 3, %d workers, 3 arrays of %d MiB, LLC %d MiB", workers, arr>>20, llc>>20))
	p.value("host.stream_array_mb", float64(arr)/(1<<20), fmt.Sprintf("per array; 4x LLC, capped at %d MiB", p.e.sz.TriadMaxMB))
	p.value("host.llc_mb", float64(llc)/(1<<20), "largest cache cpu0 reports")
	p.value("host.nproc", float64(runtime.NumCPU()), "")
	p.value("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "")
	return nil
}

// cpuHz returns cpu0's clock from /proc/cpuinfo, or 0.
func cpuHz() float64 {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "cpu MHz" {
			mhz, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err == nil {
				return mhz * 1e6
			}
		}
	}
	return 0
}

// --- kernels ----------------------------------------------------------------

// kernelState is a single-block field bundle in one composition, with a
// valid φdst so the µ-kernel's ∂φ/∂t is meaningful (as the repo's own
// kernel benchmarks build it).
type kernelState struct {
	sim *solver.Sim
	f   *kernels.Fields
	ctx *kernels.Ctx
	sc  *kernels.Scratch
	bcs grid.BoundarySet
}

func newKernelState(edge int, sc solver.Scenario) (*kernelState, error) {
	bg, err := grid.NewBlockGrid(1, 1, 1, edge, edge, edge, [3]bool{true, true, false})
	if err != nil {
		return nil, err
	}
	prm := core.DefaultParams()
	prm.Temp.Z0 = float64(edge) / 2 * prm.Dx
	sim, err := solver.New(solver.Config{Params: prm, BG: bg, Variant: kernels.VarShortcut, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	if err := sim.InitScenario(sc); err != nil {
		sim.Close()
		return nil, err
	}
	k := &kernelState{sim: sim, f: sim.RankFields(0), ctx: &kernels.Ctx{P: prm},
		sc: kernels.NewScratch(edge, edge)}
	kernels.PhiSweep(k.ctx, k.f, k.sc, kernels.VarShortcut)
	k.bcs = bg.BlockBCs(0, grid.DirectionalSolidification([]float64{1, 0, 0, 0}))
	k.bcs.Apply(k.f.PhiDst)
	return k, nil
}

// Compulsory main-memory traffic per cell update, computed from the array
// shapes: every field value the kernel reads moves once, every value it
// writes moves twice (write-allocate). φ reads 4 φ + 2 µ and writes 4 φ;
// µ reads 4 φsrc + 4 φdst + 2 µ and writes 2 µ. This is a lower bound on
// bytes and therefore an upper bound on intensity — cache misses only add
// (the paper's half-reuse estimate for µ is perfmodel.MuBytesPerLUP).
const (
	phiBytesPerLUP = (4 + 2 + 2*4) * 8
	muBytesPerLUP  = (4 + 4 + 2 + 2*2) * 8
	// flopsPerCycle is the assumed per-core peak (AVX2, two FMA ports) that
	// turns the clock into a compute roof.
	flopsPerCycle = 16
)

func (p *probeSet) kernels() error {
	edge := p.e.sz.ProbeEdge
	cells := float64(edge * edge * edge)
	const reps = 10 // ~20 ms each: ten keep a stall out of the median
	var updated float64
	sweep := func(name string, k *kernelState, v kernels.Variant, mu bool) float64 {
		sp := p.e.tr.start(p.e.root, "kernels", name, -1)
		defer sp.finish()
		rates := make([]float64, reps)
		for i := range rates {
			t0 := time.Now()
			if mu {
				kernels.MuSweep(k.ctx, k.f, k.sc, v)
			} else {
				kernels.PhiSweep(k.ctx, k.f, k.sc, v)
			}
			rates[i] = cells / time.Since(t0).Seconds() / 1e6
			updated += cells
		}
		p.samples("kernels."+name, rates)
		return median(rates)
	}
	iface, err := newKernelState(edge, solver.ScenarioInterface)
	if err != nil {
		return err
	}
	defer iface.sim.Close()
	phi := sweep("phi_interface_mlups", iface, kernels.VarShortcut, false)
	mu := sweep("mu_interface_mlups", iface, kernels.VarShortcut, true)
	sweep("phi_oracle_mlups", iface, kernels.VarGeneral, false)
	sweep("mu_oracle_mlups", iface, kernels.VarGeneral, true)
	liquid, err := newKernelState(edge, solver.ScenarioLiquid)
	if err != nil {
		return err
	}
	defer liquid.sim.Close()
	sweep("phi_liquid_mlups", liquid, kernels.VarShortcut, false)
	sweep("mu_liquid_mlups", liquid, kernels.VarShortcut, true)
	p.value("kernels.cells_updated", updated, "cells updated by the probe sweeps")

	// One BoundarySet.Apply on the same φ field.
	sp := p.e.tr.start(p.e.root, "grid", "bc_apply", -1)
	us := make([]float64, 200)
	for i := range us {
		t0 := time.Now()
		iface.bcs.Apply(iface.f.PhiSrc)
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	sp.finish()
	p.samples("grid.bc_apply_us", us)

	// Roofline: operation mix from perfmodel, bytes computed above, the
	// memory roof from the triad measured in this same run.
	phiFlops := float64(perfmodel.PhiKernelOps.Total())
	muFlops := float64(perfmodel.MuKernelOps.Total())
	p.value("kernels.phi_flops_per_byte", phiFlops/phiBytesPerLUP, "computed: perfmodel op mix / compulsory bytes from array shapes")
	p.value("kernels.mu_flops_per_byte", muFlops/muBytesPerLUP, "computed: perfmodel op mix / compulsory bytes from array shapes")
	triad, ok := p.out["host.stream_triad_gbs"]
	if !ok || triad.Value <= 0 {
		return fmt.Errorf("no triad bandwidth in this run: roofline fractions omitted")
	}
	roof := func(flops, bytes float64) (float64, string) {
		mem := triad.Value * 1e9 / bytes / 1e6 // MLUP/s
		note := fmt.Sprintf("computed roof: memory %.1f MLUP/s (triad %.2f GB/s)", mem, triad.Value)
		if hz := cpuHz(); hz > 0 {
			cpu := hz * flopsPerCycle / flops / 1e6
			note += fmt.Sprintf(", compute %.1f MLUP/s (%.0f MHz x %d flop/cycle assumed, one core)", cpu, hz/1e6, flopsPerCycle)
			if cpu < mem {
				return cpu, note
			}
		}
		return mem, note
	}
	r, note := roof(phiFlops, phiBytesPerLUP)
	p.value("kernels.phi_roofline_frac", phi/r, note)
	r, note = roof(muFlops, muBytesPerLUP)
	p.value("kernels.mu_roofline_frac", mu/r, note)
	return nil
}

// --- solver -----------------------------------------------------------------

// The whole-step legs on the interface block are measured in probeRounds
// rounds of probeSteps steps, the legs taking turns within a round: the
// overhead fractions are differences of a few percent between legs, and
// the host's speed drifts by more than that from one second to the next,
// so each leg's figure is the median over rounds that all legs shared.
const (
	probeRounds = 4
	probeSteps  = 3
)

// stepLeg builds a simulation, warms it and measures steps steps.
func (p *probeSet) stepLeg(name string, cfg phasefield.Config, front bool, warm, steps int) (solver.Metrics, *phasefield.Simulation, error) {
	sp := p.e.tr.start(p.e.root, "solver", name, -1)
	defer sp.finish()
	s, err := newSim(cfg, front)
	if err != nil {
		return solver.Metrics{}, nil, err
	}
	s.Run(warm)
	return s.RunMeasured(steps), s, nil
}

func (p *probeSet) solver() error {
	edge := p.e.sz.ProbeEdge
	W := benchWorkers()
	base := phasefield.DefaultConfig(edge, edge, edge)
	base.Parallelism = 1

	// Four legs on the same block: one worker, W workers, and one worker
	// with the tracker off, then with telemetry off — what each costs where
	// it cannot pay (prediction: about nothing).
	cfgN, full, quiet := base, base, base
	cfgN.Parallelism = W
	full.DisableActiveSweep = true
	quiet.DisableStepTelemetry = true
	const w1, wN, untracked, notelemetry = 0, 1, 2, 3
	legs := []phasefield.Config{w1: base, wN: cfgN, untracked: full, notelemetry: quiet}
	sims := make([]*phasefield.Simulation, len(legs))
	defer func() {
		for _, s := range sims {
			if s != nil {
				s.Close()
			}
		}
	}()
	for i, cfg := range legs {
		var err error
		if sims[i], err = newSim(cfg, true); err != nil {
			return err
		}
		sims[i].Run(warmSteps)
	}
	wallMs := make([][]float64, len(legs)) // per leg, per round: wall per step
	var selfMs []float64                   // 1-worker leg, per round
	sp := p.e.tr.start(p.e.root, "solver", "steps.interleaved", -1)
	for r := 0; r < probeRounds; r++ {
		for i, s := range sims {
			m := s.RunMeasured(probeSteps)
			wallMs[i] = append(wallMs[i], float64(m.WallTime)/float64(time.Millisecond)/float64(m.Steps))
			if i == w1 {
				comm1 := m.CommPhi
				comm1.Add(m.CommMu)
				self := m.WallTime - m.PhiKernelTime - m.MuKernelTime - comm1.Total()
				selfMs = append(selfMs, float64(self)/float64(time.Millisecond)/float64(m.Steps))
			}
		}
	}
	sp.finish()
	mlups := func(leg int) float64 { return float64(edge*edge*edge) / 1e3 / median(wallMs[leg]) }
	rounds := fmt.Sprintf("median of %d interleaved rounds of %d steps", probeRounds, probeSteps)
	p.value("solver.mlups_w1", mlups(w1), fmt.Sprintf("%d^3 interface block, %s", edge, rounds))
	p.value("solver.mlups_wN", mlups(wN), fmt.Sprintf("W=%d", W))
	p.value("solver.parallel_eff", mlups(wN)/(float64(W)*mlups(w1)), fmt.Sprintf("W=%d, base = the 1-worker leg", W))
	self := fromSamples(selfMs, "")
	self.Note = "1-worker leg: step wall - phi sweep - mu sweep - exchange, per step"
	p.set("solver.step_self_ms", self)
	rel := func(leg int) float64 { return median(wallMs[w1])/median(wallMs[leg]) - 1 }
	p.value("solver.tracker_overhead_frac", rel(untracked), "tracked vs DisableActiveSweep on the all-interface block, base = untracked; "+rounds)
	p.value("solver.telemetry_overhead_frac", rel(notelemetry), "telemetry on vs DisableStepTelemetry, base = off; "+rounds)

	// A short sparse column: tracked against full sweeps, window on, the
	// trigger at the nuclei's top so the window scrolls within the probe.
	col := phasefield.DefaultConfig(p.e.sz.SparseNX/2, p.e.sz.SparseNY/2, p.e.sz.SparseNZ/2)
	col.MovingWindow = true
	col.WindowFraction = 7.5 / float64(col.NZ)
	col.Parallelism = 1
	col.Seed = defaultSeed
	const colSteps = 16
	mT, s, err := p.stepLeg("column.tracked", col, false, warmSteps, colSteps)
	if err != nil {
		return err
	}
	active, shifts := s.ActiveFraction(), s.WindowShift()
	s.Close()
	colFull := col
	colFull.DisableActiveSweep = true
	mF, s, err := p.stepLeg("column.full", colFull, false, warmSteps, colSteps)
	if err != nil {
		return err
	}
	s.Close()
	p.value("solver.active_fraction", active, fmt.Sprintf("%dx%dx%d column after %d steps", col.NX, col.NY, col.NZ, warmSteps+colSteps))
	p.value("solver.window_shifts", float64(shifts), "cells scrolled")
	p.value("solver.skip_speedup", mF.WallTime.Seconds()/mT.WallTime.Seconds(), "full-sweep wall / tracked wall, base = full")
	return nil
}

// --- comm -------------------------------------------------------------------

// commRounds is how many halo rounds the exchange probe times, after
// commWarmRounds that let every pack buffer be allocated.
const (
	commRounds     = 200
	commWarmRounds = 10
)

// exchangeRounds runs φ+µ halo rounds between the ranks of worlds (one
// World per process; ranks[i] is driven through worlds[i]). It returns
// rank 0's per-round wall times in µs over the timed rounds, and how many
// pack buffers the transports allocated during them (steady state: none).
func exchangeRounds(worlds []*comm.World, ranks []int, bx, by, bz int) (us []float64, allocs int64) {
	us = make([]float64, commRounds)
	packAllocs := func() (n int64) {
		seen := map[*comm.World]bool{}
		for _, w := range worlds {
			if !seen[w] {
				seen[w] = true
				n += w.PackAllocs()
			}
		}
		return n
	}
	var warm, done sync.WaitGroup
	warm.Add(len(worlds))
	done.Add(len(worlds))
	for i := range worlds {
		go func(w *comm.World, rank int, timed bool) {
			defer done.Done()
			phi := grid.NewField(bx, by, bz, kernels.NP, 1, grid.SoA)
			mu := grid.NewField(bx, by, bz, kernels.NR, 1, grid.SoA)
			phi.FillComp(core.Liquid, 1)
			phiBCs := w.BlockBCs(rank, grid.DirectionalSolidification([]float64{1, 0, 0, 0}))
			muBCs := w.BlockBCs(rank, grid.DirectionalSolidification([]float64{0, 0}))
			round := func() {
				w.ExchangeGhosts(rank, phi, comm.TagPhi, phiBCs)
				w.ExchangeGhosts(rank, mu, comm.TagMu, muBCs)
			}
			for r := 0; r < commWarmRounds; r++ {
				round()
			}
			warm.Done()
			warm.Wait()
			if timed {
				allocs = -packAllocs()
			}
			for r := 0; r < commRounds; r++ {
				t0 := time.Now()
				round()
				if timed {
					us[r] = float64(time.Since(t0).Nanoseconds()) / 1e3
				}
			}
		}(worlds[i], ranks[i], i == 0)
	}
	done.Wait()
	allocs += packAllocs()
	return us, allocs
}

func (p *probeSet) comm() error {
	bx, by, bz := p.e.sz.HaloBX, p.e.sz.HaloBY, p.e.sz.HaloBZ
	bg, err := grid.NewBlockGrid(haloProcs, 1, 1, bx, by, bz, [3]bool{true, true, false})
	if err != nil {
		return err
	}
	// In-process: one World, both ranks local.
	sp := p.e.tr.start(p.e.root, "comm", "rounds.inproc", -1)
	w := comm.NewWorld(bg)
	us, allocs := exchangeRounds([]*comm.World{w, w}, []int{0, 1}, bx, by, bz)
	p.samples("comm.inproc_round_us", us)
	w.Close()
	sp.finish()

	// TCP loopback: one World per process over its own transport.
	sp = p.e.tr.start(p.e.root, "comm", "rounds.tcp", -1)
	worlds, err := tcpWorlds(bg, haloProcs)
	if err != nil {
		sp.finish()
		return err
	}
	us, tcpAllocs := exchangeRounds(worlds, []int{0, 1}, bx, by, bz)
	p.samples("comm.tcp_round_us", us)
	allocs += tcpAllocs
	closeWorlds(worlds)
	sp.finish()
	p.value("comm.pack_allocs", float64(allocs), "pack-buffer allocations during the timed rounds, both fabrics")

	// A short solver run over TCP: traffic counts and where the step went.
	sp = p.e.tr.start(p.e.root, "comm", "steps.tcp", -1)
	defer sp.finish()
	cfg := phasefield.DefaultConfig(haloProcs*bx, by, bz)
	cfg.PX = haloProcs
	cfg.Parallelism = 1
	g, err := startDist(cfg, haloProcs, true)
	if err != nil {
		return err
	}
	defer g.close()
	g.run(warmSteps)
	const steps = 30
	before := flowTotals(g)
	frac, wait := g.commShares(steps)
	after := flowTotals(g)
	p.value("comm.bytes_per_step", float64(after.Bytes-before.Bytes)/steps, "payload bytes sent by both ranks per step, from HaloFlows")
	p.value("comm.frames_per_step", float64(after.Frames-before.Frames)/steps, "")
	p.value("comm.sleep_tokens", float64(after.Sleeps-before.Sleeps), fmt.Sprintf("over %d steps", steps))
	p.value("comm.time_frac", frac, "pack+transfer+wait+unpack / step wall on process 0, from RunMeasured")
	p.value("comm.wait_frac", wait, "transfer+wait / step wall")
	reconnects, replayed := g.netStats()
	p.value("comm.reconnects", float64(reconnects), "")
	p.value("comm.replayed_frames", float64(replayed), "")
	return nil
}

// flowTotals sums every process' halo flow counters.
func flowTotals(g *distGroup) phasefield.HaloFlow {
	var t phasefield.HaloFlow
	for _, s := range g.sims {
		for _, f := range s.HaloFlows() {
			t.Frames += f.Frames
			t.Bytes += f.Bytes
			t.Sleeps += f.Sleeps
		}
	}
	return t
}

// tcpWorlds connects nprocs comm.Worlds over TCP loopback, one per
// "process", the way phasefield.New wires a distributed simulation.
func tcpWorlds(bg *grid.BlockGrid, nprocs int) ([]*comm.World, error) {
	listeners, peers, err := loopbackListeners(nprocs)
	if err != nil {
		return nil, err
	}
	worlds := make([]*comm.World, nprocs)
	errs := make([]error, nprocs)
	var wg sync.WaitGroup
	for i := 0; i < nprocs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := comm.NewTCPTransport(comm.TCPConfig{
				BG: bg, Proc: i, Peers: peers, Listener: listeners[i],
				CkptVersion: uint8(ckpt.Version4),
				DialTimeout: 10 * time.Second, IOTimeout: 10 * time.Second, RetryWindow: 5 * time.Second,
			})
			if err != nil {
				errs[i] = err
				return
			}
			worlds[i] = comm.NewWorldTransport(bg, tr)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			closeWorlds(worlds)
			return nil, err
		}
	}
	return worlds, nil
}

// closeWorlds closes every world concurrently (a one-sided close looks
// like a network fault to the peer).
func closeWorlds(worlds []*comm.World) {
	var wg sync.WaitGroup
	for _, w := range worlds {
		if w == nil {
			continue
		}
		wg.Add(1)
		go func(w *comm.World) {
			defer wg.Done()
			w.Close()
		}(w)
	}
	wg.Wait()
}

// --- ckpt, mesh, vtk ----------------------------------------------------------

func (p *probeSet) ckptMesh() error {
	e := p.e
	cfg := phasefield.DefaultConfig(e.sz.IONX, e.sz.IONY, e.sz.IONZ)
	cfg.Parallelism = 1
	s, err := newSim(cfg, true)
	if err != nil {
		return err
	}
	defer s.Close()
	s.Run(warmSteps)
	dir, err := os.MkdirTemp(e.tmp, "probe-ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	const reps = 5
	path := filepath.Join(dir, "probe.ckpt")
	timeWrite := func(name string, prec ckpt.Precision) ([]float64, int64, error) {
		ms := make([]float64, reps)
		for i := range ms {
			sp := e.tr.start(e.root, "ckpt", name, i)
			t0 := time.Now()
			err := writeCheckpoint(s, path, prec)
			ms[i] = msSince(t0)
			sp.finish()
			if err != nil {
				return nil, 0, err
			}
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, 0, err
		}
		return ms, fi.Size(), nil
	}
	w32, _, err := timeWrite("write_f32", ckpt.Float32)
	if err != nil {
		return err
	}
	w64, size, err := timeWrite("write_f64", ckpt.Float64)
	if err != nil {
		return err
	}
	p.samples("ckpt.write_f32_ms", w32)
	p.samples("ckpt.write_f64_ms", w64)
	p.value("ckpt.bytes", float64(size), "lossless (float64) checkpoint file")
	p.value("ckpt.write_mb_s", float64(size)/1e6/(median(w64)/1e3), "float64 file size / median write time")

	var hdr ckpt.Header
	var fields []*kernels.Fields
	rd := make([]float64, reps)
	for i := range rd {
		sp := e.tr.start(e.root, "ckpt", "read", i)
		t0 := time.Now()
		f, err := os.Open(path)
		if err != nil {
			sp.finish()
			return err
		}
		hdr, fields, _, err = ckpt.ReadPrecision(bufio.NewReaderSize(f, 1<<20))
		f.Close()
		rd[i] = msSince(t0)
		sp.finish()
		if err != nil {
			return err
		}
	}
	p.samples("ckpt.read_ms", rd)
	p.value("ckpt.read_mb_s", float64(size)/1e6/(median(rd)/1e3), "")
	rs := make([]float64, 3)
	for i := range rs {
		sp := e.tr.start(e.root, "ckpt", "reshard", i)
		t0 := time.Now()
		_, _, err := ckpt.Reshard(hdr, fields, 2, 1, 1)
		rs[i] = msSince(t0)
		sp.finish()
		if err != nil {
			return err
		}
	}
	p.samples("ckpt.reshard_ms", rs)

	// The output path of io_cycle on the same front, and the raw volume it
	// replaces.
	var ext, simp, total []float64
	var last meshStats
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		st, err := writeMeshes(e, e.root, s, dir, e.sz.IOTargetTris, i)
		if err != nil {
			return err
		}
		total = append(total, msSince(t0))
		ext = append(ext, st.extractMs)
		simp = append(simp, st.simplifyMs)
		last = st
	}
	p.samples("mesh.extract_ms", ext)
	p.samples("mesh.simplify_ms", simp)
	p.samples("mesh.output_ms", total)
	p.value("mesh.tris_in", float64(last.trisIn), "all solid phases, before simplification")
	p.value("mesh.tris_out", float64(last.trisOut), "")
	p.value("mesh.reduction_ratio", float64(last.trisIn)/float64(last.trisOut), "tris_in / tris_out")

	vtkPath := filepath.Join(dir, "probe.vtk")
	var vtkMs []float64
	var vtkBytes int64
	for i := 0; i < 3; i++ {
		sp := e.tr.start(e.root, "vtk", "write", i)
		t0 := time.Now()
		err := writeFile(vtkPath, s.WriteVTK)
		vtkMs = append(vtkMs, msSince(t0))
		sp.finish()
		if err != nil {
			return err
		}
	}
	if fi, err := os.Stat(vtkPath); err == nil {
		vtkBytes = fi.Size()
	}
	p.value("vtk.write_mb_s", float64(vtkBytes)/1e6/(median(vtkMs)/1e3), fmt.Sprintf("%d byte volume", vtkBytes))
	p.value("mesh.bytes_vs_raw_frac", float64(last.bytes)/float64(vtkBytes), "STL bytes / raw WriteVTK bytes")
	return nil
}

// --- store ------------------------------------------------------------------

func (p *probeSet) store() error {
	e := p.e
	specs, _, err := marshalSpecs(e, 1, 1)
	if err != nil {
		return err
	}
	blob, err := directRun(specs[0], runtime.NumCPU()) // a result-sized blob
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.tmp, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	const n = 20
	put, man, get := make([]float64, n), make([]float64, n), make([]float64, n)
	hashes := make([]string, n)
	for i := 0; i < n; i++ {
		// Distinct content per put: the store dedupes by hash.
		b := append(append([]byte(nil), blob...), byte(i))
		sp := e.tr.start(e.root, "store", "put_blob", i)
		t0 := time.Now()
		hashes[i], err = st.PutBlob(b)
		put[i] = msSince(t0)
		sp.finish()
		if err != nil {
			return err
		}
		sp = e.tr.start(e.root, "store", "put_manifest", i)
		t0 = time.Now()
		err = st.PutManifest(store.JobsBucket, fmt.Sprintf("probe-%03d", i), map[string]any{"id": i, "result": hashes[i]})
		man[i] = msSince(t0)
		sp.finish()
		if err != nil {
			return err
		}
	}
	for i, h := range hashes {
		sp := e.tr.start(e.root, "store", "blob_read", i)
		t0 := time.Now()
		_, err := st.Blob(h)
		get[i] = msSince(t0)
		sp.finish()
		if err != nil {
			return err
		}
	}
	p.samples("store.put_blob_ms", put)
	p.samples("store.put_manifest_ms", man)
	p.samples("store.blob_read_ms", get)
	p.value("store.put_mb_s", float64(len(blob))/1e6/(median(put)/1e3), fmt.Sprintf("%d byte blobs", len(blob)))
	return nil
}

// --- jobd -------------------------------------------------------------------

func (p *probeSet) jobd() error {
	e := p.e
	specs, blobs, err := marshalSpecs(e, daemonSpecsVmax, daemonSpecsSeeds)
	if err != nil {
		return err
	}
	d, err := startDaemon(daemonConfig(), filepath.Join(e.tmp, "probe-jobd"))
	if err != nil {
		return err
	}
	defer d.close()
	c := newClient(runtime.NumCPU())
	defer closeClient(c)

	// Closed loop, staged from the daemon's own trace marks.
	var jobs []jobSample
	retries, failed := 0, 0
	for i := 0; i <= e.sz.ProbeJobs; i++ {
		s, err := runJob(e, e.root, c, d.url, blobs[i%len(blobs)], i, true)
		if err != nil {
			return err
		}
		retries += s.retries
		if !s.ok {
			failed++
		}
		if i > 0 { // the first job pays connection and store set-up
			jobs = append(jobs, s)
		}
	}
	for name, m := range stageMedians("jobd.", jobs) {
		p.set(name, m)
	}
	p.value("jobd.result_bytes", float64(jobs[0].resultBytes), "one job's lossless result")
	p.value("jobd.retries", float64(retries), "")
	p.value("jobd.failed", float64(failed), "")

	// The same spec without the daemon, as many times as through it.
	bare := make([]float64, e.sz.ProbeJobs)
	for i := range bare {
		sp := e.tr.start(e.root, "solver", "bare_run", i)
		t0 := time.Now()
		_, err := directRun(specs[0], runtime.NumCPU())
		bare[i] = msSince(t0)
		sp.finish()
		if err != nil {
			return err
		}
	}
	done := p.out["jobd.job_done_ms_p50"].Value
	p.value("jobd.overhead_frac", 1-median(bare)/done, fmt.Sprintf("1 - bare run %.2f ms at the same %d workers / job_done_ms_p50", median(bare), runtime.NumCPU()))

	// One burst: every job submitted at once, results fetched in order.
	n := 2 * len(blobs)
	t0 := time.Now()
	burst := make([]jobSample, n)
	for i := range burst {
		if burst[i], err = submitJob(e, e.root, c, d.url, blobs[i%len(blobs)], 1000+i); err != nil {
			return err
		}
	}
	for i := range burst {
		if err := awaitJob(e, e.root, c, d.url, &burst[i], 1000+i); err != nil {
			return err
		}
	}
	p.value("jobd.jobs_per_s", float64(n)/time.Since(t0).Seconds(), fmt.Sprintf("one burst of %d jobs", n))

	// Scrape cost of the daemon's own /metrics.
	scr := make([]float64, 5)
	for i := range scr {
		sp := e.tr.start(e.root, "jobd", "http.metrics", i)
		t0 := time.Now()
		code, _, err := httpDo(c, http.MethodGet, d.url+"/metrics", "", nil)
		scr[i] = msSince(t0)
		sp.finish()
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("GET /metrics: %d %v", code, err)
		}
	}
	p.samples("jobd.metrics_scrape_ms", scr)
	return p.preempt(specs[0])
}

// preempt measures a preemption round trip on a one-slot daemon: a long
// low-priority job is running, a high-priority job arrives, preempts it at
// the next step boundary (lossless snapshot), runs, and the preempted job
// resumes and finishes. The figure is the high-priority submission → both
// results read, minus nothing: it is what the two tenants wait.
func (p *probeSet) preempt(base jobd.Spec) error {
	e := p.e
	d, err := startDaemon(jobd.Config{MaxConcurrent: 1, Budget: 1, ReportEvery: 1}, filepath.Join(e.tmp, "probe-preempt"))
	if err != nil {
		return err
	}
	defer d.close()
	c := newClient(2)
	defer closeClient(c)
	long := base
	long.Steps = 4 * base.Steps
	long.Name = "long"
	longBlob, _ := json.Marshal(long)
	urgent := base
	urgent.Priority = 10
	urgent.Name = "urgent"
	urgentBlob, _ := json.Marshal(urgent)

	sp := e.tr.start(e.root, "jobd", "preempt", -1)
	defer sp.finish()
	lo, err := submitJob(e, sp, c, d.url, longBlob, 0)
	if err != nil {
		return err
	}
	// Wait until the long job is stepping.
	deadline := time.Now().Add(20 * time.Second)
	for {
		var st jobd.Status
		code, body, err := httpDo(c, http.MethodGet, d.url+"/jobs/"+lo.id, "", nil)
		if err == nil && code == http.StatusOK && json.Unmarshal(body, &st) == nil &&
			st.State == jobd.StateRunning && st.Step > 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("long job never started stepping")
		}
		time.Sleep(time.Millisecond)
	}
	t0 := time.Now()
	hi, err := submitJob(e, sp, c, d.url, urgentBlob, 1)
	if err != nil {
		return err
	}
	if err := awaitJob(e, sp, c, d.url, &hi, 1); err != nil {
		return err
	}
	if err := awaitJob(e, sp, c, d.url, &lo, 0); err != nil {
		return err
	}
	ms := msSince(t0)
	var st jobd.Status
	_, body, err := httpDo(c, http.MethodGet, d.url+"/jobs/"+lo.id, "", nil)
	if err != nil || json.Unmarshal(body, &st) != nil {
		return fmt.Errorf("status of the preempted job unreadable")
	}
	if st.Preemptions < 1 {
		return fmt.Errorf("the long job finished without being preempted")
	}
	want, err := directRun(long, 1)
	if err != nil {
		return err
	}
	e.check(lo.resultHash == hashBytes(want), "jobd probe: preempted job's result differs from the direct run")
	p.value("jobd.preempt_roundtrip_ms", ms, fmt.Sprintf("urgent job submitted -> both results read; %d preemption(s)", st.Preemptions))
	return nil
}

// --- fleet ------------------------------------------------------------------

func (p *probeSet) fleet() error {
	e := p.e
	nV, nS := 2, e.sz.FleetSeeds
	as := sweepArray(e, nV, nS)
	specs, err := as.Expand()
	if err != nil {
		return err
	}
	legs := make([]*arrayRun, 2)
	for leg, killAfter := range []int{0, max(1, len(specs)/4)} {
		f, err := startFleet(filepath.Join(e.tmp, fmt.Sprintf("probe-fleet-%d", leg)), 2, fleetDaemonConfig())
		if err != nil {
			return err
		}
		if leg == 0 {
			// What one gateway probe costs: the daemon's /healthz.
			rtt := make([]float64, 20)
			for i := range rtt {
				t0 := time.Now()
				code, _, err := httpDo(f.client, http.MethodGet, f.daemons[0].url+"/healthz", "", nil)
				rtt[i] = msSince(t0)
				if err != nil || code != http.StatusOK {
					f.close()
					return fmt.Errorf("daemon /healthz: %d %v", code, err)
				}
			}
			p.samples("fleet.probe_rtt_ms", rtt)
		}
		op := e.tr.start(e.root, "bench", []string{"array.clean", "array.loss"}[leg], leg)
		legs[leg], err = runArray(e, op, f, as, leg, killAfter, 1)
		op.finish()
		var lag []float64
		if err == nil && leg == 0 {
			lag, err = legs[leg].settleLagMs(f.client)
		}
		f.close()
		if err != nil {
			return err
		}
		if leg == 0 {
			p.samples("fleet.replicate_ms_p50", lag)
		}
	}
	clean, loss := legs[0], legs[1]
	// fleet_array checks every child against its direct run; here the two
	// legs only have to agree with each other.
	for _, sp := range specs {
		key := specKey(sp)
		e.check(clean.hashes[key] != "" && clean.hashes[key] == loss.hashes[key],
			"fleet probe: child %s differs between the clean and the loss leg", key)
	}
	p.value("fleet.admit_ms", clean.admitMs, "POST /arrays round trip")
	p.samples("fleet.place_ms_p50", clean.placed)
	p.value("fleet.results_merge_ms", clean.mergeMs, "GET /arrays/{id}/results round trip")
	p.value("fleet.array_wall_s", clean.wallS, fmt.Sprintf("%d children, 2 daemons", clean.children))
	p.value("fleet.array_loss_wall_s", loss.wallS, fmt.Sprintf("daemon 1 killed at %.3f s", loss.killedAtS))
	p.value("fleet.requeue_cost_s", loss.wallS-clean.wallS, "array_loss_wall_s - array_wall_s")
	p.value("fleet.requeues", float64(loss.requeues), "")
	p.value("fleet.detect_ms", loss.detectMs, "kill -> gateway reports the daemon dead")

	// The same array on one bare daemon with the same total budget.
	d, err := startDaemon(jobd.Config{MaxConcurrent: 2, Budget: 2, ReportEvery: 5}, filepath.Join(e.tmp, "probe-fleet-bare"))
	if err != nil {
		return err
	}
	defer d.close()
	c := newClient(2)
	defer closeClient(c)
	body, _ := json.Marshal(as)
	sp := e.tr.start(e.root, "jobd", "array.bare", -1)
	defer sp.finish()
	t0 := time.Now()
	code, out, err := httpDo(c, http.MethodPost, d.url+"/arrays", "", body)
	if err != nil || code != http.StatusCreated {
		return fmt.Errorf("POST /arrays on the bare daemon: %d %v", code, err)
	}
	var st jobd.ArrayStatus
	if err := json.Unmarshal(out, &st); err != nil {
		return err
	}
	for _, child := range st.Children {
		s := jobSample{id: child.ID, submitted: t0}
		if err := awaitJob(e, sp, c, d.url, &s, -1); err != nil {
			return err
		}
	}
	bare := time.Since(t0).Seconds()
	p.value("fleet.overhead_frac", 1-bare/clean.wallS, fmt.Sprintf("1 - bare daemon %.3f s / array_wall_s", bare))
	return nil
}
