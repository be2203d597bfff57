package phasefield

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/grid"
	"repro/internal/schedule"
	"repro/internal/solver"
)

// distributed_test.go proves the network transport and elastic resharding
// against the same oracle as multirank_test.go: the golden trajectory on a
// TCP-connected rank grid must be bitwise identical to the single-rank
// in-process run, and a checkpoint resharded onto a different-sized grid
// must resume that trajectory bit for bit. The TCP "processes" are
// goroutines joined over loopback listeners — the wire path, framing,
// handshake and root-gathering are exactly the multi-node ones.

// startDistSims builds one Simulation per TCP process over loopback, using
// mk to construct each (New+Init or Restore). mk runs concurrently for all
// processes because the transport handshake blocks until every peer is up.
func startDistSims(t *testing.T, nprocs int, mk func(proc int, d *DistConfig) (*Simulation, error)) []*Simulation {
	t.Helper()
	listeners := make([]net.Listener, nprocs)
	peers := make([]string, nprocs)
	for p := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[p] = l
		peers[p] = l.Addr().String()
	}
	sims := make([]*Simulation, nprocs)
	errs := make([]error, nprocs)
	var wg sync.WaitGroup
	for p := 0; p < nprocs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sims[p], errs[p] = mk(p, &DistConfig{
				Proc: p, Peers: peers, Listener: listeners[p],
				DialTimeout: 10 * time.Second,
				IOTimeout:   10 * time.Second,
			})
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", p, err)
		}
	}
	t.Cleanup(func() { closeSims(sims) })
	return sims
}

// runDist advances every process to `until` steps concurrently (the halo
// exchange synchronizes them internally).
func runDist(t *testing.T, sims []*Simulation, scheds []*schedule.Schedule, until int) {
	t.Helper()
	errs := make([]error, len(sims))
	var wg sync.WaitGroup
	for i := range sims {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = sims[i].RunSchedule(scheds[i], until-sims[i].Step(), ScheduleOptions{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", i, err)
		}
	}
}

// gatherDist runs the global-field gather collective on every process and
// returns the root's φ and µ fields.
func gatherDist(sims []*Simulation) (phi, mu *grid.Field) {
	fields := make([][2]*grid.Field, len(sims))
	var wg sync.WaitGroup
	for i := range sims {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fields[i][0] = sims[i].GlobalPhi()
			fields[i][1] = sims[i].sim.GatherGlobalMu()
		}(i)
	}
	wg.Wait()
	return fields[0][0], fields[0][1]
}

// checkpointDist writes a lossless V4 snapshot of a distributed run: the
// gather is collective, the file write root-only.
func checkpointDist(t *testing.T, sims []*Simulation, path string) {
	t.Helper()
	errs := make([]error, len(sims))
	var wg sync.WaitGroup
	for i := range sims {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if !sims[i].IsRoot() {
				errs[i] = sims[i].WriteCheckpoint(nil, ckpt.Float64)
				return
			}
			f, err := os.Create(path)
			if err != nil {
				errs[i] = err
				return
			}
			defer f.Close()
			if err := sims[i].WriteCheckpoint(f, ckpt.Float64); err != nil {
				errs[i] = err
				return
			}
			errs[i] = f.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: checkpoint: %v", i, err)
		}
	}
}

// closeSims tears every process down concurrently — closing one side while
// a peer still exchanges would look like a network fault.
func closeSims(sims []*Simulation) {
	var wg sync.WaitGroup
	for _, s := range sims {
		if s == nil {
			continue
		}
		wg.Add(1)
		go func(s *Simulation) { defer wg.Done(); s.Close() }(s)
	}
	wg.Wait()
}

// expectGatheredBitwise asserts the root-gathered fields of a distributed
// run match a reference simulation bit for bit.
func expectGatheredBitwise(t *testing.T, label string, phi, mu *grid.Field, ref *Simulation) {
	t.Helper()
	if ok, maxd := phi.InteriorEqual(ref.GlobalPhi(), 0); !ok {
		t.Errorf("%s: φ differs by %g (want bitwise identity)", label, maxd)
	}
	if ok, maxd := mu.InteriorEqual(ref.sim.GatherGlobalMu(), 0); !ok {
		t.Errorf("%s: µ differs by %g (want bitwise identity)", label, maxd)
	}
}

// TestTCPGoldenBitwiseEquivalence is the multirank harness over the wire:
// the golden trajectory on a 2×2 rank grid split across four TCP processes
// must match the single-rank in-process run bitwise at every waypoint, and
// the run's root-written checkpoint must seed a restart leg — on both
// transports — that stays bitwise identical to the in-process restart.
func TestTCPGoldenBitwiseEquivalence(t *testing.T) {
	refDir, tcpDir := t.TempDir(), t.TempDir()
	ref := mkGoldenSim(t, 1, 1)
	refSched := goldenSchedule(t, filepath.Join(refDir, "ref_%06d.pfcp"))

	tcpCkpt := filepath.Join(tcpDir, "tcp_%06d.pfcp")
	sims := startDistSims(t, 4, func(proc int, d *DistConfig) (*Simulation, error) {
		cfg := goldenConfig()
		cfg.PX, cfg.PY = 2, 2
		cfg.Distributed = d
		s, err := New(cfg)
		if err != nil {
			return nil, err
		}
		return s, s.InitProduction()
	})
	scheds := make([]*schedule.Schedule, len(sims))
	for i := range scheds {
		scheds[i] = goldenSchedule(t, tcpCkpt)
	}

	for _, until := range []int{12, goldenCkptStep, 28, goldenSteps} {
		if err := ref.RunSchedule(refSched, until-ref.Step(), ScheduleOptions{}); err != nil {
			t.Fatal(err)
		}
		runDist(t, sims, scheds, until)
		phi, mu := gatherDist(sims)
		expectGatheredBitwise(t, fmt.Sprintf("step %d", until), phi, mu, ref)
		if sims[0].WindowShift() != ref.WindowShift() {
			t.Fatalf("step %d: window shifts diverged (%d vs %d)",
				until, sims[0].WindowShift(), ref.WindowShift())
		}
	}
	if ref.WindowShift() == 0 {
		t.Fatal("run never shifted the window; the harness guards nothing")
	}
	midCkpt := fmt.Sprintf(tcpCkpt, goldenCkptStep)
	if _, err := os.Stat(midCkpt); err != nil {
		t.Fatalf("root did not write the scheduled checkpoint: %v", err)
	}
	closeSims(sims)

	// Restart leg. The TCP run's checkpoint and the reference's encode
	// bitwise-identical global states, so their float32 round trips seed
	// identical continuations: in-process from the reference's file, TCP
	// 4-process from the root-written file.
	refRestored, err := Restore(fmt.Sprintf(filepath.Join(refDir, "ref_%06d.pfcp"), goldenCkptStep),
		Config{MovingWindow: true, WindowFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := refRestored.RunSchedule(refSched, goldenSteps-refRestored.Step(), ScheduleOptions{}); err != nil {
		t.Fatal(err)
	}
	restored := startDistSims(t, 4, func(proc int, d *DistConfig) (*Simulation, error) {
		return Restore(midCkpt, Config{MovingWindow: true, WindowFraction: 0.5, Distributed: d})
	})
	for _, s := range restored {
		if s.Step() != goldenCkptStep {
			t.Fatalf("restored at step %d", s.Step())
		}
		if s.NumProcs() != 4 {
			t.Fatalf("restored on %d processes", s.NumProcs())
		}
	}
	rScheds := make([]*schedule.Schedule, len(restored))
	for i := range rScheds {
		rScheds[i] = goldenSchedule(t, tcpCkpt)
	}
	runDist(t, restored, rScheds, goldenSteps)
	phi, mu := gatherDist(restored)
	expectGatheredBitwise(t, "restart leg", phi, mu, refRestored)
	closeSims(restored)
}

// TestReshardTrajectory is the elastic-resharding acceptance: a single-rank
// run checkpointed losslessly (V4), resharded onto a 2×2 grid and resumed
// over four TCP processes, checkpointed again, resharded down to 2×1 and
// resumed over two processes, must end bitwise identical to the same
// trajectory run uninterrupted on one rank.
func TestReshardTrajectory(t *testing.T) {
	dir := t.TempDir()
	restoreCfg := func(d *DistConfig) Config {
		return Config{MovingWindow: true, WindowFraction: 0.5, Distributed: d}
	}

	ref := mkGoldenSim(t, 1, 1)
	refSched := goldenSchedule(t, filepath.Join(dir, "ref_%06d.pfcp"))
	if err := ref.RunSchedule(refSched, goldenSteps, ScheduleOptions{}); err != nil {
		t.Fatal(err)
	}

	// Leg 1: one rank to step 14 (past the burst, mid-ramp), V4 snapshot.
	leg := mkGoldenSim(t, 1, 1)
	legSched := goldenSchedule(t, filepath.Join(dir, "leg_%06d.pfcp"))
	if err := leg.RunSchedule(legSched, 14, ScheduleOptions{}); err != nil {
		t.Fatal(err)
	}
	v4a := filepath.Join(dir, "leg1.pfcp")
	fa, err := os.Create(v4a)
	if err != nil {
		t.Fatal(err)
	}
	if err := leg.WriteCheckpoint(fa, ckpt.Float64); err != nil {
		t.Fatal(err)
	}
	if err := fa.Close(); err != nil {
		t.Fatal(err)
	}
	leg.Close()

	// Grow: 1 rank → 2×2 grid on four TCP processes.
	v4b := filepath.Join(dir, "leg1_2x2.pfcp")
	if err := Reshard(v4a, v4b, 2, 2, 1); err != nil {
		t.Fatal(err)
	}
	grown := startDistSims(t, 4, func(proc int, d *DistConfig) (*Simulation, error) {
		return Restore(v4b, restoreCfg(d))
	})
	if grown[0].Step() != 14 {
		t.Fatalf("grown grid restored at step %d, want 14", grown[0].Step())
	}
	gScheds := make([]*schedule.Schedule, len(grown))
	for i := range gScheds {
		gScheds[i] = goldenSchedule(t, filepath.Join(dir, "grown_%06d.pfcp"))
	}
	runDist(t, grown, gScheds, 26)
	v4c := filepath.Join(dir, "leg2.pfcp")
	checkpointDist(t, grown, v4c)
	closeSims(grown)

	// Shrink: 2×2 → 2×1 on two TCP processes, run out the schedule. This
	// leg reshards in memory on each process (RestoreResharded), the
	// file-rewriting form having been proven by the grow leg.
	shrunk := startDistSims(t, 2, func(proc int, d *DistConfig) (*Simulation, error) {
		return RestoreResharded(v4c, 2, 1, 1, restoreCfg(d))
	})
	if shrunk[0].Step() != 26 {
		t.Fatalf("shrunk grid restored at step %d, want 26", shrunk[0].Step())
	}
	sScheds := make([]*schedule.Schedule, len(shrunk))
	for i := range sScheds {
		sScheds[i] = goldenSchedule(t, filepath.Join(dir, "shrunk_%06d.pfcp"))
	}
	runDist(t, shrunk, sScheds, goldenSteps)

	if shrunk[0].WindowShift() != ref.WindowShift() {
		t.Fatalf("window shifts diverged (%d vs %d)", shrunk[0].WindowShift(), ref.WindowShift())
	}
	phi, mu := gatherDist(shrunk)
	expectGatheredBitwise(t, "resharded trajectory", phi, mu, ref)
	closeSims(shrunk)
}

// TestTCPLinkLossReturnedByRunSchedule runs a two-process DefaultConfig
// simulation (µ exchange hidden as a task on the sweep pool) and closes
// proc 1 after 3 steps, at one and at two sweep workers per process — the
// φ-sweep inline beside the exchange task, and as claim tasks sharing the
// pool with it. Proc 0's RunSchedule must return, within IOTimeout, an
// error that is a *comm.TransportError naming proc 1 — not kill the process
// from a rank goroutine or a pool worker — with no claim task still busy,
// and every later call must return the same error.
func TestTCPLinkLossReturnedByRunSchedule(t *testing.T) {
	const ioTimeout = 10 * time.Second // startDistSims' IOTimeout
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			gauge := &solver.WorkerGauge{}
			sims := startDistSims(t, 2, func(proc int, d *DistConfig) (*Simulation, error) {
				cfg := DefaultConfig(16, 8, 16)
				cfg.PX = 2
				cfg.Parallelism = par
				cfg.Distributed = d
				if proc == 0 {
					cfg.WorkerGauge = gauge
				}
				s, err := New(cfg)
				if err != nil {
					return nil, err
				}
				return s, s.InitProduction()
			})
			if sims[0].sim.Cfg.Overlap != solver.OverlapMu {
				t.Fatalf("DefaultConfig overlap %v, want OverlapMu", sims[0].sim.Cfg.Overlap)
			}

			closed := make(chan error, 1)
			go func() {
				err := sims[1].RunSchedule(nil, 3, ScheduleOptions{})
				sims[1].Close()
				closed <- err
			}()
			ended := make(chan error, 1)
			go func() { ended <- sims[0].RunSchedule(nil, 1<<30, ScheduleOptions{}) }()

			if err := <-closed; err != nil {
				t.Fatalf("proc 1: %v", err)
			}
			var err error
			select {
			case err = <-ended:
			case <-time.After(ioTimeout):
				t.Fatalf("proc 0 still running %v after proc 1 closed", ioTimeout)
			}
			var te *comm.TransportError
			if !errors.As(err, &te) || te.Peer != 1 {
				t.Fatalf("proc 0 RunSchedule returned %v, want a *comm.TransportError naming proc 1", err)
			}
			if n := gauge.Active(); n != 0 {
				t.Fatalf("%d claim tasks still busy after RunSchedule returned", n)
			}
			if again := sims[0].RunSchedule(nil, 1, ScheduleOptions{}); again != err {
				t.Fatalf("next RunSchedule returned %v, want the same %v", again, err)
			}
		})
	}
}
