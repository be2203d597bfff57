package phasefield

import (
	"bytes"
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

// distributed_test.go holds the process-group helpers the TCP tests share
// and proves elastic resharding and link loss. The TCP "processes" are
// goroutines joined over loopback listeners — the wire path, framing,
// handshake and root-gathering are exactly the multi-node ones.

// startProcs builds one Simulation in process (procs 0), or one per
// loopback TCP process, concurrently: the handshake blocks until every
// peer is up. Each process's transport owns its listener from then on.
func startProcs(procs int, mk func(d *DistConfig) (*Simulation, error)) (sims []*Simulation, err error) {
	if procs == 0 {
		s, err := mk(nil)
		if err != nil {
			return nil, err
		}
		return []*Simulation{s}, nil
	}
	peers := make([]string, procs)
	lns := make([]net.Listener, procs)
	defer func() {
		if err != nil {
			for _, l := range lns {
				if l != nil {
					l.Close()
				}
			}
		}
	}()
	for p := range lns {
		if lns[p], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		peers[p] = lns[p].Addr().String()
	}
	sims = make([]*Simulation, procs)
	err = each(sims, func(p int, _ *Simulation) error {
		var err error
		sims[p], err = mk(&DistConfig{Proc: p, Peers: peers, Listener: lns[p],
			DialTimeout: 10 * time.Second, IOTimeout: 10 * time.Second})
		return err
	})
	if err != nil {
		closeSims(sims)
		return nil, err
	}
	return sims, nil
}

// startDistSims is startProcs over nprocs TCP processes for a test.
func startDistSims(t *testing.T, nprocs int, mk func(proc int, d *DistConfig) (*Simulation, error)) []*Simulation {
	t.Helper()
	sims, err := startProcs(nprocs, func(d *DistConfig) (*Simulation, error) { return mk(d.Proc, d) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeSims(sims) })
	return sims
}

// each runs fn for every process concurrently and joins their errors. A
// process whose fn fails is closed, so peers blocked on it fail too
// instead of waiting for it forever.
func each(sims []*Simulation, fn func(p int, s *Simulation) error) error {
	errs := make([]error, len(sims))
	var wg sync.WaitGroup
	for p, s := range sims {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[p] = fn(p, s); errs[p] != nil && s != nil {
				s.Close()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runDist advances every process to `until` steps concurrently (the halo
// exchange synchronizes them internally).
func runDist(t *testing.T, sims []*Simulation, scheds []*schedule.Schedule, until int) {
	t.Helper()
	if err := each(sims, func(p int, s *Simulation) error {
		return s.RunSchedule(scheds[p], until-s.Step(), ScheduleOptions{})
	}); err != nil {
		t.Fatal(err)
	}
}

// gatherDist runs the global-field gather collective on every process and
// returns the root's φ and µ fields.
func gatherDist(sims []*Simulation) (phi, mu *grid.Field) {
	fields := make([][2]*grid.Field, len(sims))
	each(sims, func(p int, s *Simulation) error {
		fields[p] = [2]*grid.Field{s.GlobalPhi(), s.sim.GatherGlobalMu()}
		return nil
	})
	return fields[0][0], fields[0][1]
}

// checkpointDist writes a lossless V4 snapshot of a distributed run: the
// gather is collective, the file write root-only.
func checkpointDist(t *testing.T, sims []*Simulation, path string) {
	t.Helper()
	if err := each(sims, func(_ int, s *Simulation) error {
		if !s.IsRoot() {
			return s.WriteCheckpoint(nil, ckpt.Float64)
		}
		var buf bytes.Buffer
		if err := s.WriteCheckpoint(&buf, ckpt.Float64); err != nil {
			return err
		}
		return os.WriteFile(path, buf.Bytes(), 0o644)
	}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
}

// closeSims tears every process down concurrently — closing one side while
// a peer still exchanges would look like a network fault.
func closeSims(sims []*Simulation) {
	each(sims, func(_ int, s *Simulation) error {
		if s != nil {
			s.Close()
		}
		return nil
	})
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
	if ok, maxd := phi.InteriorEqual(ref.GlobalPhi(), 0); !ok {
		t.Errorf("resharded trajectory: φ differs by %g (want bitwise identity)", maxd)
	}
	if ok, maxd := mu.InteriorEqual(ref.sim.GatherGlobalMu(), 0); !ok {
		t.Errorf("resharded trajectory: µ differs by %g (want bitwise identity)", maxd)
	}
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
