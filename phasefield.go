package phasefield

import (
	"fmt"
	"io"
	"net"
	"os"
	"regexp"
	"time"

	"repro/internal/analysis"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/grid"
	"repro/internal/kernels"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/solver"
	"repro/internal/thermo"
	"repro/internal/vtk"
)

// NumPhases is the number of order parameters (three solids + liquid).
const NumPhases = core.NPhases

// LiquidPhase is the phase index of the melt.
const LiquidPhase = core.Liquid

// PhaseNames returns the names of the four phases of the Ag-Al-Cu system.
func PhaseNames() [NumPhases]string {
	sys := thermo.AgAlCu()
	var out [NumPhases]string
	for i := range sys.Phases {
		out[i] = sys.Phases[i].Name
	}
	return out
}

// Config assembles a simulation. DefaultConfig is the production entry
// point; a zero Config differs from it only in Overlap, whose zero value is
// OverlapNone (blocking exchanges). The remaining zero values select the
// documented defaults. The simulation runs the production kernels, the
// only ones the solver runs; a checkpoint records them as
// kernels.VarShortcut.
type Config struct {
	// Global domain size in cells.
	NX, NY, NZ int
	// Blocks per axis (defaults to 1×1×1). The product is the number of
	// ranks, the analogue of MPI ranks: each is stepped by its own
	// goroutine in the process that owns it. Sweep workers are set by
	// Parallelism, per process.
	PX, PY, PZ int
	// Physical and numerical parameters, copied by New. nil selects
	// core.DefaultParams with Temp.Z0 = NZ/2·Dx and Dt = 0.8·StableDt().
	Params *core.Params
	// Overlap selects communication hiding: solver.OverlapMu (DefaultConfig,
	// the paper's production choice) or solver.OverlapNone (the zero value).
	Overlap solver.OverlapMode
	// MovingWindow enables the frozen-front window (requires PZ == 1).
	MovingWindow bool
	// WindowFraction is the relative front height that triggers a window
	// shift (0 selects the default 0.6).
	WindowFraction float64
	// Parallelism is this process's worker budget for intra-block sweep
	// parallelism (0 selects runtime.GOMAXPROCS(0)). Each block the process
	// owns gets ⌊Parallelism/its blocks⌋ workers; from two up, they split
	// the block's sweeps into concurrent z-slabs. SetWorkerBudget
	// re-targets it between steps.
	Parallelism int
	// WorkerGauge, when non-nil, instruments this simulation's sweep
	// workers on a shared gauge (the job daemon installs one gauge across
	// all concurrent simulations to observe its global budget).
	WorkerGauge *solver.WorkerGauge
	// Faults, when non-nil, arms deterministic fault injection in the
	// solver's sweeps (see internal/faultfs and solver.SweepPoint). Leave
	// nil in production.
	Faults *faultfs.Points
	// DisableActiveSweep turns off per-slice activity tracking, forcing
	// every sweep to cover the full domain. The zero value leaves the
	// tracker on; skipped and full sweeps are bitwise identical, so this
	// knob exists for benchmarking overhead, not for correctness.
	DisableActiveSweep bool
	// DisableStepTelemetry turns off per-step phase-record capture. The
	// zero value keeps it on: the capture samples existing counters at
	// step boundaries only, allocates nothing in steady state and never
	// changes the numerics, so the knob exists to measure its overhead.
	DisableStepTelemetry bool
	// Seed for the Voronoi nuclei.
	Seed int64

	// Distributed, when non-nil, spreads the block ranks over several OS
	// processes connected by TCP instead of goroutines in one process.
	// Every process runs the same Config (same domain, decomposition and
	// schedule) with its own Proc index; the handshake verifies the grids
	// match. Collective outputs (checkpoints, gathered fields, meshes) are
	// produced on process 0 only.
	Distributed *DistConfig
}

// DistConfig describes this process' place in a network-distributed run.
// The rank grid (Config.PX×PY×PZ blocks) is partitioned over len(Peers)
// processes by the same contiguous split on every process; the per-process
// worker budget (Config.Parallelism) then applies within each process.
type DistConfig struct {
	// Proc is this process' index in [0, len(Peers)).
	Proc int
	// Peers lists every process' listen address, indexed by process.
	Peers []string
	// Listener accepts inbound connections; required unless this is the
	// highest-index process (each pair of processes shares one
	// connection, which the higher index dials). When nil and required,
	// New listens on Peers[Proc].
	Listener net.Listener
	// DialTimeout and IOTimeout bound connection establishment and
	// per-frame I/O; zero values select the transport's 30s defaults.
	DialTimeout time.Duration
	IOTimeout   time.Duration
	// RetryWindow is ignored: a lost link fails the run at once (see
	// comm.TransportError), and the run resumes from a checkpoint.
	RetryWindow time.Duration
}

// DefaultConfig returns a production configuration for an nx×ny×nz domain.
func DefaultConfig(nx, ny, nz int) Config {
	return Config{
		NX: nx, NY: ny, NZ: nz,
		PX: 1, PY: 1, PZ: 1,
		Overlap: solver.OverlapMu,
	}
}

// Simulation is a running directional-solidification simulation.
type Simulation struct {
	sim *solver.Sim
	cfg Config
}

// New validates the configuration and allocates the simulation.
func New(cfg Config) (*Simulation, error) {
	if cfg.PX == 0 {
		cfg.PX = 1
	}
	if cfg.PY == 0 {
		cfg.PY = 1
	}
	if cfg.PZ == 0 {
		cfg.PZ = 1
	}
	if cfg.NX <= 0 || cfg.NY <= 0 || cfg.NZ <= 0 {
		return nil, fmt.Errorf("phasefield: domain %dx%dx%d invalid", cfg.NX, cfg.NY, cfg.NZ)
	}
	if cfg.NX%cfg.PX != 0 || cfg.NY%cfg.PY != 0 || cfg.NZ%cfg.PZ != 0 {
		return nil, fmt.Errorf("phasefield: domain %dx%dx%d not divisible by blocks %dx%dx%d",
			cfg.NX, cfg.NY, cfg.NZ, cfg.PX, cfg.PY, cfg.PZ)
	}
	if cfg.Params == nil {
		cfg.Params = core.DefaultParams()
		// Put the eutectic isotherm at mid-height by default.
		cfg.Params.Temp.Z0 = float64(cfg.NZ) / 2 * cfg.Params.Dx
		cfg.Params.Dt = 0.8 * cfg.Params.StableDt()
	} else {
		p := *cfg.Params // ramps and Restore write Dt and Temp; Sys is read-only
		cfg.Params = &p
	}
	bg, err := grid.NewBlockGrid(cfg.PX, cfg.PY, cfg.PZ,
		cfg.NX/cfg.PX, cfg.NY/cfg.PY, cfg.NZ/cfg.PZ, [3]bool{true, true, false})
	if err != nil {
		return nil, err
	}
	var transport comm.Transport
	if d := cfg.Distributed; d != nil {
		if d.Proc < 0 || d.Proc >= len(d.Peers) {
			return nil, fmt.Errorf("phasefield: proc %d outside peer list of %d", d.Proc, len(d.Peers))
		}
		ln := d.Listener
		if ln == nil && d.Proc < len(d.Peers)-1 {
			ln, err = net.Listen("tcp", d.Peers[d.Proc])
			if err != nil {
				return nil, fmt.Errorf("phasefield: listen as proc %d: %w", d.Proc, err)
			}
		}
		transport, err = comm.NewTCPTransport(comm.TCPConfig{
			BG:          bg,
			Proc:        d.Proc,
			Peers:       d.Peers,
			Listener:    ln,
			CkptVersion: uint8(ckpt.Version4),
			DialTimeout: d.DialTimeout,
			IOTimeout:   d.IOTimeout,
		})
		if err != nil {
			return nil, err
		}
	}
	s, err := solver.New(solver.Config{
		Params:               cfg.Params,
		BG:                   bg,
		Overlap:              cfg.Overlap,
		MovingWindow:         cfg.MovingWindow,
		WindowFrontFraction:  cfg.WindowFraction,
		Parallelism:          cfg.Parallelism,
		Gauge:                cfg.WorkerGauge,
		Faults:               cfg.Faults,
		DisableActiveSweep:   cfg.DisableActiveSweep,
		DisableStepTelemetry: cfg.DisableStepTelemetry,
		Seed:                 cfg.Seed,
		Transport:            transport,
	})
	if err != nil {
		if transport != nil {
			transport.Close()
		}
		return nil, err
	}
	return &Simulation{sim: s, cfg: cfg}, nil
}

// Params exposes the active parameter set.
func (s *Simulation) Params() *core.Params { return s.cfg.Params }

// InitProduction fills the domain with Voronoi solid nuclei at the bottom
// and melt above (the paper's Fig. 2 setup).
func (s *Simulation) InitProduction() error {
	return s.sim.InitScenario(solver.ScenarioProduction)
}

// InitFront fills the domain with a planar lamellar solidification front at
// mid-height (the "interface" benchmark composition).
func (s *Simulation) InitFront() error {
	return s.sim.InitScenario(solver.ScenarioInterface)
}

// Run advances n timesteps. It panics with the error RunSchedule would
// return.
func (s *Simulation) Run(n int) { s.sim.Run(n) }

// Close releases the sweep engine's worker pool. Optional (workers are also
// released on garbage collection); the Simulation must not be stepped
// afterwards.
func (s *Simulation) Close() { s.sim.Close() }

// RunMeasured advances n timesteps and returns performance metrics.
func (s *Simulation) RunMeasured(n int) solver.Metrics { return s.sim.RunMeasured(n) }

// ResetAndMeasure resets the metrics, runs fn (which should advance the
// simulation, e.g. via RunSchedule) and returns metrics for the steps taken.
func (s *Simulation) ResetAndMeasure(fn func()) solver.Metrics { return s.sim.Measure(fn) }

// Step returns the completed step count.
func (s *Simulation) Step() int { return s.sim.StepCount() }

// Time returns the simulated time.
func (s *Simulation) Time() float64 { return s.sim.Time() }

// Fault returns the first kernel panic captured by this simulation's
// sweeps, or nil. A faulted simulation's fields hold garbage from the
// aborted step — callers must not read statistics (SolidFraction may be
// NaN) or checkpoint it; the job daemon retries from the last snapshot
// instead.
func (s *Simulation) Fault() error {
	if f := s.sim.Fault(); f != nil {
		return f
	}
	return nil
}

// SolidFraction returns the global solid volume fraction.
func (s *Simulation) SolidFraction() float64 { return s.sim.SolidFraction() }

// ActiveFraction returns the fraction of z-slices the activity tracker
// swept last step (φ- and µ-sweeps averaged). It is 1 when tracking is
// disabled or the map has not been derived yet.
func (s *Simulation) ActiveFraction() float64 { return s.sim.ActiveFraction() }

// PhaseFractions returns the volume fraction of every phase.
func (s *Simulation) PhaseFractions() [NumPhases]float64 { return s.sim.PhaseFractions() }

// StepRecords copies the retained per-step phase records (kernel, halo,
// schedule and checkpoint timings; active fraction; halo bytes), oldest
// first, into dst and returns it. The solver keeps the last
// obs.DefaultRingCap steps. Must be called at a step boundary from the
// stepping goroutine (RunSchedule's OnStep hook satisfies both); empty
// when Config.DisableStepTelemetry was set.
func (s *Simulation) StepRecords(dst []obs.StepRecord) []obs.StepRecord {
	return s.sim.StepRecords(dst)
}

// TelemetryTotals returns the cumulative step-phase totals since the
// simulation started (same calling discipline as StepRecords; zero when
// telemetry is disabled).
func (s *Simulation) TelemetryTotals() obs.StepTotals { return s.sim.TelemetryTotals() }

// GlobalCells returns the total interior cell count — the numerator of
// MLUP/s throughput computations over telemetry windows.
func (s *Simulation) GlobalCells() int { return s.sim.GlobalCells() }

// HaloFlow is one directed halo stream in a Simulation's transport-metric
// export: rank → peer traffic on one message tag.
type HaloFlow struct {
	// Rank is the sending rank (owned by this process); Peer the
	// receiving rank, possibly on another process.
	Rank int
	Peer int
	// Tag names the stream ("phi" or "mu").
	Tag string
	// Frames and Bytes count messages sent and payload bytes moved.
	Frames int64
	Bytes  int64
	// Sleeps is always 0: every halo round carries its payload. It is
	// kept until the repo benchmark drops its comm.sleep_tokens probe.
	Sleeps int64
}

// HaloFlows returns the per-(peer, tag) traffic counters of this process'
// ranks, sorted by rank, peer, tag. Safe to call from any goroutine (the
// counters live under the communication layer's own locks). Cold path:
// the job daemon calls it per metrics scrape.
func (s *Simulation) HaloFlows() []HaloFlow {
	flows := s.sim.World.PeerFlows()
	out := make([]HaloFlow, len(flows))
	for i, f := range flows {
		out[i] = HaloFlow{Rank: f.Rank, Peer: f.Peer, Tag: f.Tag.String(),
			Frames: f.Frames, Bytes: f.Bytes}
	}
	return out
}

// ExchangeLatencies returns the whole-exchange wall-time histograms of
// this process' ranks, keyed by tag name ("phi", "mu"). Each sample is
// one staged six-face halo exchange. Safe from any goroutine; cold path.
func (s *Simulation) ExchangeLatencies() map[string]obs.HistogramSnapshot {
	return map[string]obs.HistogramSnapshot{
		comm.TagPhi.String(): s.sim.World.ExchangeLatency(comm.TagPhi),
		comm.TagMu.String():  s.sim.World.ExchangeLatency(comm.TagMu),
	}
}

// NetStats always returns zeros and ok false. No transport reconnects or
// replays frames: a lost TCP link fails the run, which resumes from its
// last checkpoint. Kept so existing callers compile.
func (s *Simulation) NetStats() (reconnects, replayed int64, ok bool) {
	return 0, 0, false
}

// FrontHeight returns the global z index of the solidification front.
func (s *Simulation) FrontHeight() int { return s.sim.FrontHeight() }

// WindowShift returns how many cells the moving window has scrolled.
func (s *Simulation) WindowShift() int { return s.sim.WindowShift() }

// IsRoot reports whether this process owns collective outputs (checkpoint
// files, gathered fields, meshes). Always true in a single-process run.
func (s *Simulation) IsRoot() bool { return s.sim.IsRoot() }

// NumProcs returns how many OS processes share the rank grid (1 unless
// Config.Distributed was set).
func (s *Simulation) NumProcs() int { return s.sim.NumProcs() }

// GlobalPhi gathers the φ field into one grid (post-processing only). In a
// distributed run it is a collective returning the field on the root
// process and nil elsewhere.
func (s *Simulation) GlobalPhi() *grid.Field {
	s.sim.Sync()
	return s.sim.GatherGlobalPhi()
}

// ExtractInterfaces extracts one triangle mesh per solid phase describing
// the interface between that phase and all others. It gathers the global φ
// field onto the root process (GlobalPhi — in a distributed run a
// full-field collective) and extracts once there; callers coarsen each mesh
// with mesh.Simplify and write it with Mesh.WriteSTL. It is the only output
// path: per-block extraction was no cheaper (see package experiments).
func (s *Simulation) ExtractInterfaces() []*mesh.Mesh {
	phi := s.GlobalPhi()
	if phi == nil {
		return nil // non-root process of a distributed run
	}
	bs := grid.AllNeumann()
	bs.Apply(phi)
	out := make([]*mesh.Mesh, core.NPhases-1)
	for a := 0; a < core.NPhases-1; a++ {
		out[a] = mesh.ExtractPhase(phi, a)
	}
	return out
}

// Checkpoint writes the full simulation state to path in single precision
// (the paper's disk format). In a distributed run it is a collective:
// every process must call it at the same step; the file is created on
// process 0 only and other processes ignore path.
func (s *Simulation) Checkpoint(path string) error {
	if !s.sim.IsRoot() {
		return s.WriteCheckpoint(nil, ckpt.Float32)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.WriteCheckpoint(f, ckpt.Float32); err != nil {
		return err
	}
	return f.Close()
}

// WriteCheckpoint serializes the full simulation state to w at the given
// field precision. ckpt.Float32 is the paper's compact disk format;
// ckpt.Float64 is the lossless snapshot the job daemon uses for
// preemption, where the resumed trajectory must be bit-identical to an
// uninterrupted run. In a distributed run it is a collective that gathers
// every rank's fields to process 0; non-root processes contribute their
// ranks and return nil without writing (their w is ignored and may be nil).
func (s *Simulation) WriteCheckpoint(w io.Writer, prec ckpt.Precision) error {
	s.sim.Sync()
	fields, err := s.sim.GatherFields()
	if err != nil {
		return err
	}
	if fields == nil {
		return nil // non-root process; the gather was our contribution
	}
	p := s.cfg.Params
	phiBCs, muBCs := s.sim.DomainBCs()
	h := ckpt.Header{
		Step:        int64(s.sim.StepCount()),
		Time:        s.sim.Time(),
		WindowShift: int64(s.sim.WindowShift()),
		PX:          int32(s.cfg.PX), PY: int32(s.cfg.PY), PZ: int32(s.cfg.PZ),
		BX: int32(s.cfg.NX / s.cfg.PX), BY: int32(s.cfg.NY / s.cfg.PY), BZ: int32(s.cfg.NZ / s.cfg.PZ),
		SchedulePos: int64(s.sim.SchedulePos()),
		Dt:          p.Dt,
		TempG:       p.Temp.G,
		TempV:       p.Temp.V,
		TempZ0:      p.Temp.Z0,
		PhiBC:       ckpt.EncodeBCs(phiBCs),
		MuBC:        ckpt.EncodeBCs(muBCs),
	}
	h.SetVariant(kernels.VarShortcut)
	return ckpt.WritePrecision(w, h, fields, prec)
}

// Restore loads a checkpoint written by Checkpoint into a new Simulation
// with the stored decomposition. The domain, decomposition, mutable process
// parameters, schedule position and boundary conditions come from the
// checkpoint header; everything else (overlap mode, moving window,
// parallelism) comes from cfg. The simulation runs the production kernels:
// a checkpoint whose header records another kernel variant is rejected.
func Restore(path string, cfg Config) (*Simulation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return RestoreReader(f, cfg)
}

// RestoreReader is Restore over an arbitrary checkpoint stream — the job
// daemon resumes preempted jobs from in-memory float64 snapshots through
// this path.
func RestoreReader(r io.Reader, cfg Config) (*Simulation, error) {
	h, fields, err := ckpt.Read(r)
	if err != nil {
		return nil, err
	}
	return restoreDecoded(h, fields, cfg)
}

// RestoreResharded loads a checkpoint and re-decomposes it onto a px×py×pz
// rank grid in memory before resuming — the elastic-restart form of
// Restore. Every process of a distributed run calls it independently with
// the same arguments; nothing is written back to disk (use Reshard to
// rewrite the file instead). The re-split is pure float64 data movement,
// so a lossless (version-4) checkpoint resumes bit-identically on the new
// grid.
func RestoreResharded(path string, px, py, pz int, cfg Config) (*Simulation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h, fields, _, err := ckpt.ReadPrecision(f)
	if err != nil {
		return nil, err
	}
	h2, fields2, err := ckpt.Reshard(h, fields, px, py, pz)
	if err != nil {
		return nil, err
	}
	return restoreDecoded(h2, fields2, cfg)
}

// restoreDecoded builds a Simulation from a decoded checkpoint: the domain
// and decomposition come from the header, as does the runtime state (BCs,
// parameters, schedule position). The header's kernel variant must be the
// production one.
func restoreDecoded(h ckpt.Header, fields []*kernels.Fields, cfg Config) (*Simulation, error) {
	v, err := h.Variant()
	if err != nil {
		return nil, err
	}
	if v != kernels.VarShortcut {
		return nil, fmt.Errorf("phasefield: checkpoint records kernel variant %d (%q); the facade runs only the production kernels", int(v), v)
	}
	cfg.PX, cfg.PY, cfg.PZ = int(h.PX), int(h.PY), int(h.PZ)
	cfg.NX = int(h.PX) * int(h.BX)
	cfg.NY = int(h.PY) * int(h.BY)
	cfg.NZ = int(h.PZ) * int(h.BZ)
	sim, err := New(cfg)
	if err != nil {
		return nil, err
	}
	// The header carries the active per-face boundary conditions (a
	// scheduled SetBC event may have changed them mid-run); install them
	// before the field restore so the rebuilt ghost layers already use the
	// checkpointed wall state.
	phiBCs, okPhi := ckpt.DecodeBCs(h.PhiBC)
	muBCs, okMu := ckpt.DecodeBCs(h.MuBC)
	if !okPhi || !okMu {
		return nil, fmt.Errorf("phasefield: checkpoint header carries corrupt boundary-condition state")
	}
	if err := sim.sim.SetDomainBCs(phiBCs, muBCs); err != nil {
		return nil, err
	}
	if err := sim.sim.RestoreState(int(h.Step), h.Time, int(h.WindowShift), fields); err != nil {
		return nil, err
	}
	// The runtime state a fixed configuration cannot reproduce: the mutable
	// process parameters (so a restart mid-ramp resumes bit-compatibly) and
	// the schedule position.
	p := sim.cfg.Params
	p.Dt, p.Temp.G, p.Temp.V, p.Temp.Z0 = h.Dt, h.TempG, h.TempV, h.TempZ0
	sim.sim.SetSchedulePos(int(h.SchedulePos))
	return sim, nil
}

// Reshard rewrites the checkpoint at inPath onto a px×py×pz rank grid at
// outPath, preserving the stored field precision. This is the elastic
// restart path: a run checkpointed on one rank grid resumes on a
// different-sized cluster by resharding the file first, then Restoring it
// on every process. The re-split is pure float64 data movement, so a
// lossless (version-4) checkpoint resumes the trajectory bit-identically
// on the new grid. The global domain must divide evenly by the target.
func Reshard(inPath, outPath string, px, py, pz int) error {
	in, err := os.Open(inPath)
	if err != nil {
		return err
	}
	defer in.Close()
	h, fields, prec, err := ckpt.ReadPrecision(in)
	if err != nil {
		return err
	}
	h2, fields2, err := ckpt.Reshard(h, fields, px, py, pz)
	if err != nil {
		return err
	}
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := ckpt.WritePrecision(out, h2, fields2, prec); err != nil {
		return err
	}
	return out.Close()
}

// LoadSchedule parses a production schedule from a JSON file (the format
// read by cmd/solidify -schedule; see internal/schedule).
func LoadSchedule(path string) (*schedule.Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return schedule.FromJSON(f)
}

// LoadSchedules parses several schedule files and composes them into one
// (schedule.Compose semantics: same-step ties fire in argument order,
// conflicting events are rejected). This is the multi-schedule form of
// cmd/solidify -schedule a.json,b.json.
func LoadSchedules(paths ...string) (*schedule.Schedule, error) {
	scheds := make([]*schedule.Schedule, len(paths))
	for i, p := range paths {
		s, err := LoadSchedule(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		scheds[i] = s
	}
	return schedule.Compose(scheds...)
}

// stepVerb matches a %d-style format verb in a checkpoint path template;
// templates without one (including paths with literal percent signs) are
// used verbatim.
var stepVerb = regexp.MustCompile(`%[-+ #0-9]*d`)

// ScheduleOptions customizes RunSchedule.
type ScheduleOptions struct {
	// CheckpointPath is the default path template for Checkpoint events
	// that carry none; a %d-style verb (if present) is replaced by the
	// step count. Empty means such events are skipped.
	CheckpointPath string
	// Log, when non-nil, receives one line per fired event and written
	// checkpoint.
	Log func(msg string)
	// OnStep, when non-nil, is called after every completed step at a
	// step boundary (the cooperative yield point). Returning true stops
	// RunSchedule early with a nil error; the job daemon uses this for
	// preemption, cancellation and worker-budget rebalancing.
	OnStep func(step int) (stop bool)
}

// RunSchedule advances n timesteps under a production schedule: nucleation
// bursts, process-parameter ramps, boundary-condition events and periodic
// checkpoints applied between timesteps (see internal/schedule). Restarted
// simulations resume at the checkpointed schedule position. A kernel panic
// or, in a distributed run, a lost TCP link (a *comm.TransportError naming
// the peer) stops the simulation: RunSchedule returns it, and every later
// call returns it again.
func (s *Simulation) RunSchedule(sched *schedule.Schedule, n int, opt ScheduleOptions) error {
	hooks := solver.ScheduleHooks{
		WriteCheckpoint: func(tmpl string, step int) error {
			if tmpl == "" {
				tmpl = opt.CheckpointPath
			}
			if tmpl == "" {
				return nil
			}
			path := tmpl
			if stepVerb.MatchString(tmpl) {
				path = fmt.Sprintf(tmpl, step)
			}
			if err := s.Checkpoint(path); err != nil {
				return err
			}
			if opt.Log != nil {
				opt.Log(fmt.Sprintf("step %d: checkpoint %s", step, path))
			}
			return nil
		},
	}
	if opt.Log != nil {
		hooks.OnEvent = func(ev schedule.Event, step int) {
			opt.Log(fmt.Sprintf("step %d: %v", step, ev))
		}
	}
	hooks.StepDone = opt.OnStep
	return s.sim.RunSchedule(n, sched, hooks)
}

// SchedulePos returns how many one-shot schedule events have fired.
func (s *Simulation) SchedulePos() int { return s.sim.SchedulePos() }

// AppliedEvents returns the schedule recorder's audit log: every event
// RunSchedule has applied, one-shots rebased to the step they actually
// fired, replayable via schedule.EncodeJSON (see AppliedScheduleJSON).
func (s *Simulation) AppliedEvents() []schedule.Event { return s.sim.AppliedEvents() }

// AppliedScheduleJSON dumps the applied-event audit log as a replayable
// schedule file (the format read by -schedule / LoadSchedule).
func (s *Simulation) AppliedScheduleJSON() ([]byte, error) {
	return schedule.EncodeJSON(s.sim.AppliedEvents())
}

// SetWorkerBudget re-targets the simulation's total sweep parallelism to n
// workers. Must be called at a step boundary (e.g. from
// ScheduleOptions.OnStep); the trajectory is unaffected — slab
// decompositions are bit-for-bit equivalent across worker counts.
func (s *Simulation) SetWorkerBudget(n int) error { return s.sim.SetWorkerBudget(n) }

// DomainBCs returns deep copies of the live per-face boundary sets of the
// φ and µ fields (scheduled SetBC events change them between steps).
func (s *Simulation) DomainBCs() (phi, mu grid.BoundarySet) { return s.sim.DomainBCs() }

// MuNorm returns the RMS chemical potential over the interior (the scalar
// tracked by the golden-trajectory harness).
func (s *Simulation) MuNorm() float64 { return s.sim.MuNorm() }

// WriteVTK writes the gathered φ field as a legacy VTK volume for
// visualization.
func (s *Simulation) WriteVTK(w io.Writer) error {
	phi := s.GlobalPhi()
	if phi == nil {
		return nil // non-root process of a distributed run
	}
	names := PhaseNames()
	return vtk.WriteField(w, phi, s.cfg.Params.Dx, names[:])
}

// LamellaEvents counts lamella splits and merges of one solid phase along
// the growth direction (the 3D microstructure phenomena of Fig. 11).
func (s *Simulation) LamellaEvents(phase int) analysis.Events {
	phi := s.GlobalPhi()
	if phi == nil {
		return analysis.Events{} // non-root process of a distributed run
	}
	return analysis.TotalEvents(phi, phase)
}

// TwoPointCorrelation returns S₂(r) of a phase in z-slice z (the basis of
// the paper's planned quantitative comparison with tomography).
func (s *Simulation) TwoPointCorrelation(phase, z, maxR int) []float64 {
	phi := s.GlobalPhi()
	if phi == nil {
		return nil // non-root process of a distributed run
	}
	return analysis.TwoPointCorrelation(phi, phase, z, maxR)
}
