package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	phasefield "repro"
)

// w_halo.go — halo_tcp: a 2×1×1 rank grid of small blocks, one rank per
// "process", the processes joined over TCP loopback inside the benchmark
// process (DistConfig.Listener). The blocks are small enough that the
// exchange, not the kernels, sets the step time; nothing in the transport
// is bypassed — framing, handshake and per-(peer,tag) streams are the
// multi-node ones.

// distGroup is a set of TCP-connected simulations stepped in lockstep.
type distGroup struct {
	sims []*phasefield.Simulation
}

// startDist builds one simulation per process over fresh loopback
// listeners. Construction runs concurrently because the transport
// handshake blocks until every peer is up.
func startDist(cfg phasefield.Config, nprocs int, front bool) (*distGroup, error) {
	listeners, peers, err := loopbackListeners(nprocs)
	if err != nil {
		return nil, err
	}
	g := &distGroup{sims: make([]*phasefield.Simulation, nprocs)}
	errs := make([]error, nprocs)
	var wg sync.WaitGroup
	for p := 0; p < nprocs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c := cfg
			c.Distributed = &phasefield.DistConfig{
				Proc: p, Peers: peers, Listener: listeners[p],
				DialTimeout: 10 * time.Second, IOTimeout: 10 * time.Second, RetryWindow: 5 * time.Second,
			}
			g.sims[p], errs[p] = newSim(c, front)
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			g.close()
			return nil, fmt.Errorf("proc %d: %w", p, err)
		}
	}
	return g, nil
}

// loopbackListeners opens one TCP listener per process on an ephemeral
// loopback port and returns them with their addresses. The transports
// own and close them.
func loopbackListeners(n int) ([]net.Listener, []string, error) {
	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	for p := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, open := range listeners[:p] {
				open.Close()
			}
			return nil, nil, err
		}
		listeners[p], peers[p] = l, l.Addr().String()
	}
	return listeners, peers, nil
}

// commShares runs steps measured steps on every process and returns, for
// process 0, the share of the step wall the solver's own accounting
// attributes to communication (pack+transfer+wait+unpack) and to waiting
// on the peer (transfer+wait).
func (g *distGroup) commShares(steps int) (frac, wait float64) {
	g.each(func(p int, s *phasefield.Simulation) {
		m := s.RunMeasured(steps)
		if p == 0 && m.WallTime > 0 {
			comm := m.CommPhi
			comm.Add(m.CommMu)
			frac = comm.Total().Seconds() / m.WallTime.Seconds()
			wait = (comm.Wait + comm.Transfer).Seconds() / m.WallTime.Seconds()
		}
	})
	return frac, wait
}

// each runs fn on every process concurrently — every collective (a step,
// a checkpoint gather) needs all of them — and waits.
func (g *distGroup) each(fn func(p int, s *phasefield.Simulation)) {
	var wg sync.WaitGroup
	for p, s := range g.sims {
		wg.Add(1)
		go func(p int, s *phasefield.Simulation) {
			defer wg.Done()
			fn(p, s)
		}(p, s)
	}
	wg.Wait()
}

// run advances every process n steps.
func (g *distGroup) run(n int) {
	g.each(func(_ int, s *phasefield.Simulation) { s.Run(n) })
}

// hash returns the root's lossless state hash (a collective).
func (g *distGroup) hash() (string, error) {
	hashes := make([]string, len(g.sims))
	errs := make([]error, len(g.sims))
	g.each(func(p int, s *phasefield.Simulation) { hashes[p], errs[p] = stateHash(s) })
	for _, err := range errs {
		if err != nil {
			return "", err
		}
	}
	return hashes[0], nil
}

// close tears every process down concurrently: closing one side while a
// peer still exchanges would look like a network fault.
func (g *distGroup) close() {
	g.each(func(_ int, s *phasefield.Simulation) {
		if s != nil {
			s.Close()
		}
	})
}

// reconnects sums the transports' reconnect counters — a TCP reconnect is
// a failed operation on loopback.
func (g *distGroup) netStats() (reconnects, replayed int64) {
	for _, s := range g.sims {
		r, f, _ := s.NetStats()
		reconnects += r
		replayed += f
	}
	return
}

// haloProcs is the number of TCP processes (and ranks) of halo_tcp.
const haloProcs = 2

type haloWorkload struct {
	g   *distGroup
	cfg phasefield.Config
}

func haloConfig(e *env) phasefield.Config {
	cfg := phasefield.DefaultConfig(haloProcs*e.sz.HaloBX, e.sz.HaloBY, e.sz.HaloBZ)
	cfg.PX = haloProcs
	cfg.Parallelism = 1 // per process: one rank, one worker
	cfg.Seed = e.seed
	return cfg
}

func (w *haloWorkload) setup(e *env) error {
	w.cfg = haloConfig(e)
	sp := e.tr.start(e.root, "comm", "connect+init", -1)
	defer sp.finish()
	g, err := startDist(w.cfg, haloProcs, true)
	if err != nil {
		return err
	}
	g.run(warmSteps)
	w.g = g
	return nil
}

func (w *haloWorkload) run(e *env, budget time.Duration) error {
	per := e.sz.HaloStepsPerOp
	cells := w.g.sims[0].GlobalCells() * per
	deadline := time.Now().Add(budget)
	// The unit operation is a batch of per lockstep steps: a single step
	// (~1.5 ms) is either fast or slow depending on which goroutine the
	// scheduler parks, and the median of such a two-humped sample jumps
	// between the humps from run to run; a batch averages over them.
	// Process 0 steps on this goroutine and is the one timed; the others
	// follow batch by batch, so every process takes the same number of
	// steps and a batch's wall time includes its slowest peer.
	stepCh := make([]chan struct{}, len(w.g.sims))
	var wg sync.WaitGroup
	for p := 1; p < len(w.g.sims); p++ {
		stepCh[p] = make(chan struct{})
		wg.Add(1)
		go func(s *phasefield.Simulation, ch chan struct{}) {
			defer wg.Done()
			for range ch {
				s.Run(per)
			}
		}(w.g.sims[p], stepCh[p])
	}
	var durs []float64
	var prevEnd time.Time
	for i := 0; i < 20 || time.Now().Before(deadline); i++ {
		sp := e.tr.start(e.root, "solver", "step", i)
		t0 := time.Now()
		for p := 1; p < len(stepCh); p++ {
			stepCh[p] <- struct{}{}
		}
		w.g.sims[0].Run(per)
		d := time.Since(t0)
		sp.finish()
		if !prevEnd.IsZero() {
			e.gap(float64(t0.Sub(prevEnd)) / float64(time.Millisecond))
		}
		prevEnd = t0.Add(d)
		durs = append(durs, d.Seconds())
	}
	for p := 1; p < len(stepCh); p++ {
		close(stepCh[p])
	}
	wg.Wait()
	recordSteps(e, durs, cells)

	reconnects, replayed := w.g.netStats()
	e.attempt(len(durs)*per, int(reconnects))
	e.extra("reconnects", Metric{Value: float64(reconnects), Unit: "count"})
	e.extra("replayed_frames", Metric{Value: float64(replayed), Unit: "count"})

	// Where the step went, from the solver's own accounting, over a short
	// measured tail (process 0's share).
	const tail = 200
	sp := e.tr.start(e.root, "solver", "measured_tail", -1)
	frac, wait := w.g.commShares(tail)
	sp.finish()
	e.extra("comm_time_frac", Metric{Value: frac, Unit: "ratio", N: tail,
		Note: "pack+transfer+wait+unpack / step wall, RunMeasured on process 0"})
	e.extra("comm_wait_frac", Metric{Value: wait, Unit: "ratio", N: tail})
	return nil
}

func (w *haloWorkload) verify(e *env) error {
	sp := e.tr.start(e.root, "comm", "verify.prefix", -1)
	g, err := startDist(w.cfg, haloProcs, true)
	if err != nil {
		sp.finish()
		return err
	}
	g.run(verifySteps)
	got, err := g.hash()
	g.close()
	sp.finish()
	if err != nil {
		return err
	}
	sp = e.tr.start(e.root, "solver", "verify.reference", -1)
	want, err := prefixHash(referenceConfig(w.cfg), true, verifySteps)
	sp.finish()
	if err != nil {
		return err
	}
	e.check(got == want, "halo_tcp: %d-step prefix over TCP %s differs from the in-process serial reference %s", verifySteps, got, want)
	checkPin(e, "halo_tcp", want)
	return nil
}

func (w *haloWorkload) close() {
	if w.g != nil {
		w.g.close()
		w.g = nil
	}
}
