package solver

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/kernels"
)

// Metrics aggregates performance and physics measurements of a run. MLUP/s
// ("million lattice cell updates per second") is the paper's unit
// throughout §5.
type Metrics struct {
	Steps         int
	Cells         int
	PhiKernelTime time.Duration // summed over ranks
	MuKernelTime  time.Duration
	CommPhi       comm.Stats
	CommMu        comm.Stats
	WallTime      time.Duration
}

// MLUPs returns million lattice updates per second based on wall time.
func (m *Metrics) MLUPs() float64 {
	if m.WallTime <= 0 {
		return 0
	}
	return float64(m.Cells) * float64(m.Steps) / m.WallTime.Seconds() / 1e6
}

// PhiKernelMLUPs returns the φ-kernel-only rate (per-rank times are summed,
// so this is a per-core rate multiplied by rank count when ranks run truly
// in parallel).
func (m *Metrics) PhiKernelMLUPs() float64 {
	if m.PhiKernelTime <= 0 {
		return 0
	}
	return float64(m.Cells) * float64(m.Steps) / m.PhiKernelTime.Seconds() / 1e6
}

// MuKernelMLUPs returns the µ-kernel-only rate.
func (m *Metrics) MuKernelMLUPs() float64 {
	if m.MuKernelTime <= 0 {
		return 0
	}
	return float64(m.Cells) * float64(m.Steps) / m.MuKernelTime.Seconds() / 1e6
}

// RunMeasured advances n steps and returns timing metrics for exactly those
// steps.
func (s *Sim) RunMeasured(n int) Metrics {
	return s.Measure(func() { s.Run(n) })
}

// Measure resets the metrics, runs fn (which should advance the simulation,
// e.g. through Run or RunSchedule) and returns timing metrics for exactly
// the steps fn took. In a distributed run the timings cover this process'
// ranks only — each process measures its own share of the work.
func (s *Sim) Measure(fn func()) Metrics {
	s.ResetMetrics()
	before := s.step
	t0 := time.Now()
	fn()
	wall := time.Since(t0)

	m := Metrics{Steps: s.step - before, Cells: s.GlobalCells(), WallTime: wall}
	for _, r := range s.ranks {
		m.PhiKernelTime += r.phiKernelTime
		m.MuKernelTime += r.muKernelTime
	}
	for r := 0; r < s.World.NumRanks(); r++ {
		m.CommPhi.Add(s.World.RankTagStats(r, comm.TagPhi))
		m.CommMu.Add(s.World.RankTagStats(r, comm.TagMu))
	}
	return m
}

// ResetMetrics clears all accumulated timing state. The telemetry ring
// and its totals keep accumulating across resets — only the snapshots the
// per-step capture differences against are re-anchored to the zeroed
// counters.
func (s *Sim) ResetMetrics() {
	for _, r := range s.ranks {
		r.phiKernelTime = 0
		r.muKernelTime = 0
	}
	s.World.ResetStats()
	s.prevPhi, s.prevMu, s.prevComm = 0, 0, comm.Stats{}
}

// SolidFraction returns the global solid volume fraction. The per-global-
// rank partial sums are combined across processes slot by slot (each slot
// has exactly one contributor) and totalled in rank order, so the result
// is bit-identical for every decomposition of the same domain onto any
// process count.
func (s *Sim) SolidFraction() float64 {
	sums := make([]float64, s.Cfg.BG.NumBlocks())
	s.forAllRanks(func(r *rank) {
		f := r.fields.PhiSrc
		t := 0.0
		f.Interior(func(x, y, z int) {
			for a := 0; a < core.NPhases-1; a++ {
				t += f.At(a, x, y, z)
			}
		})
		sums[r.id] = t
	})
	s.World.GlobalSum(sums)
	total := 0.0
	for _, v := range sums {
		total += v
	}
	return total / float64(s.GlobalCells())
}

// PhaseFractions returns the global volume fraction of every phase (same
// bitwise-stable cross-process reduction as SolidFraction).
func (s *Sim) PhaseFractions() [core.NPhases]float64 {
	vec := make([]float64, s.Cfg.BG.NumBlocks()*core.NPhases)
	s.forAllRanks(func(r *rank) {
		f := r.fields.PhiSrc
		var acc [core.NPhases]float64
		f.Interior(func(x, y, z int) {
			for a := 0; a < core.NPhases; a++ {
				acc[a] += f.At(a, x, y, z)
			}
		})
		copy(vec[r.id*core.NPhases:], acc[:])
	})
	s.World.GlobalSum(vec)
	var out [core.NPhases]float64
	inv := 1 / float64(s.GlobalCells())
	for r := 0; r < s.Cfg.BG.NumBlocks(); r++ {
		for a := 0; a < core.NPhases; a++ {
			out[a] += vec[r*core.NPhases+a] * inv
		}
	}
	return out
}

// HasNaN reports whether any rank's source fields — on any process —
// contain NaN/Inf.
func (s *Sim) HasNaN() bool {
	bad := make([]float64, s.Cfg.BG.NumBlocks())
	s.forAllRanks(func(r *rank) {
		if r.fields.PhiSrc.HasNaN() || r.fields.MuSrc.HasNaN() {
			bad[r.id] = 1
		}
	})
	s.World.GlobalMax(bad)
	for _, b := range bad {
		if b > 0 {
			return true
		}
	}
	return false
}

// interiorRows calls fn with the interior x-row of component c at (y,z)
// for every c, z and y of f, in that nesting order.
func interiorRows(f *grid.Field, fn func(c, y, z int, row []float64)) {
	for c := 0; c < f.NComp; c++ {
		for z := 0; z < f.NZ; z++ {
			for y := 0; y < f.NY; y++ {
				fn(c, y, z, f.Row(c, y, z)[f.G:f.G+f.NX])
			}
		}
	}
}

// packFields flattens a block's source-field interiors (φ then µ, in
// interiorRows order) for the cross-process gather.
func packFields(f *kernels.Fields) []float64 {
	phi, mu := f.PhiSrc, f.MuSrc
	out := make([]float64, 0, (phi.NComp+mu.NComp)*phi.NumInterior())
	for _, fld := range []*grid.Field{phi, mu} {
		interiorRows(fld, func(_, _, _ int, row []float64) { out = append(out, row...) })
	}
	return out
}

// unpackFields reverses packFields into a fresh bundle. Ghost layers stay
// zero — consumers read interiors only (checkpoint writer, global
// assembly).
func unpackFields(f *kernels.Fields, data []float64) error {
	phi, mu := f.PhiSrc, f.MuSrc
	if n := (phi.NComp + mu.NComp) * phi.NumInterior(); len(data) != n {
		return fmt.Errorf("solver: gathered block payload has %d floats, want %d", len(data), n)
	}
	i := 0
	for _, fld := range []*grid.Field{phi, mu} {
		interiorRows(fld, func(_, _, _ int, row []float64) { i += copy(row, data[i:]) })
	}
	f.PhiDst.CopyFrom(phi)
	f.MuDst.CopyFrom(mu)
	return nil
}

// GatherFields assembles every rank's field bundle, indexed by global
// rank, on the root process — the data plane of checkpoint writing and
// global field export. Single-process worlds return the live bundles
// (zero copy); distributed worlds ship source-field interiors to the root
// and return freshly allocated bundles there, nil on every other process.
// It is a collective: every process must call it at the same point.
func (s *Sim) GatherFields() ([]*kernels.Fields, error) {
	n := s.Cfg.BG.NumBlocks()
	out := make([]*kernels.Fields, n)
	if s.World.NumProcs() == 1 {
		for _, r := range s.ranks {
			out[r.id] = r.fields
		}
		return out, nil
	}
	parts := make([][]float64, n)
	for _, r := range s.ranks {
		parts[r.id] = packFields(r.fields)
	}
	gathered := s.World.GatherBlocks(parts)
	if gathered == nil {
		return nil, nil // non-root
	}
	for r := 0; r < n; r++ {
		f := kernels.NewFields(s.Cfg.BG.BX, s.Cfg.BG.BY, s.Cfg.BG.BZ)
		if err := unpackFields(f, gathered[r]); err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
		out[r] = f
	}
	return out, nil
}

// GatherGlobalPhi assembles the global φ field on a single Field (for
// output, analysis and mesh extraction). Intended for post-processing, not
// the hot loop. In a distributed run this is a collective that returns the
// field on the root process and nil elsewhere.
func (s *Sim) GatherGlobalPhi() *grid.Field {
	f, _ := s.gatherGlobal(func(f *kernels.Fields) *grid.Field { return f.PhiSrc }, core.NPhases)
	return f
}

// GatherGlobalMu assembles the global µ field (same collective semantics
// as GatherGlobalPhi).
func (s *Sim) GatherGlobalMu() *grid.Field {
	f, _ := s.gatherGlobal(func(f *kernels.Fields) *grid.Field { return f.MuSrc }, core.NRed)
	return f
}

func (s *Sim) gatherGlobal(pick func(*kernels.Fields) *grid.Field, ncomp int) (*grid.Field, error) {
	fields, err := s.GatherFields()
	if err != nil {
		return nil, err
	}
	if fields == nil {
		return nil, nil // non-root process
	}
	nx, ny, nz := s.Cfg.BG.GlobalCells()
	out := grid.NewField(nx, ny, nz, ncomp, 1, grid.SoA)
	for r, bundle := range fields {
		ox, oy, oz := s.Cfg.BG.Origin(r)
		interiorRows(pick(bundle), func(a, y, z int, row []float64) {
			copy(out.Row(a, oy+y, oz+z)[out.G+ox:], row)
		})
	}
	return out, nil
}

// RankFields exposes a global rank's field bundle (used by checkpointing
// and the benchmark harness). Returns nil for ranks owned by another
// process.
func (s *Sim) RankFields(r int) *kernels.Fields {
	for _, rk := range s.ranks {
		if rk.id == r {
			return rk.fields
		}
	}
	return nil
}

// NumRanks returns the number of block owners in this process (the global
// block count on a single-process world).
func (s *Sim) NumRanks() int { return len(s.ranks) }

// NumProcs returns how many processes share the rank grid.
func (s *Sim) NumProcs() int { return s.World.NumProcs() }

// IsRoot reports whether this is process 0 — the process that owns
// checkpoint files, gathered fields and console output in a distributed
// run.
func (s *Sim) IsRoot() bool { return s.World.IsRoot() }
