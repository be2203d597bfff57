// Package kernels implements the two compute kernels of the solver — the
// φ-sweep (Eq. 1, D3C7) and the µ-sweep (Eq. 3, D3C19 including the
// anti-trapping current of Eq. 4) — in every variant of the paper's
// optimization ladder (§3.3, §5.1.1):
//
//	general   — emulation of the original general-purpose code: indirect
//	            per-cell function calls, no specialization;
//	basic     — straightforward specialized scalar port ("basic waLBerla
//	            implementation");
//	simd      — explicitly vectorized kernels: cellwise vectorization over
//	            the four phases for φ, four-cell vectorization for µ, plus
//	            common-subexpression precomputation;
//	tz        — + per-z-slice precomputation of all temperature-dependent
//	            quantities (valid because T = T(z,t));
//	stag      — + staggered-value buffers that reuse the three already
//	            computed face values per cell, halving staggered work;
//	shortcut  — + region-dependent early exits (bulk cells skip the φ
//	            update; cells without liquid skip the anti-trapping
//	            current; rows whose whole µ stencil is pure liquid take a
//	            7-point diffusion loop instead of the D3C19 machinery).
//
// A regularly running equivalence suite (kernels_test.go) checks all
// variants against each other, mirroring the paper's own test strategy.
package kernels

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/thermo"
)

// NP and NR alias the model dimensions for brevity.
const (
	NP = core.NPhases
	NR = core.NRed
	LQ = core.Liquid
)

// Variant selects a rung of the optimization ladder.
type Variant int

const (
	VarGeneral Variant = iota
	VarBasic
	VarSIMD
	VarTz
	VarStag
	VarShortcut
	NumVariants
)

func (v Variant) String() string {
	switch v {
	case VarGeneral:
		return "general purpose code"
	case VarBasic:
		return "basic waLBerla implementation"
	case VarSIMD:
		return "with SIMD intrinsics"
	case VarTz:
		return "with T(z) optimization"
	case VarStag:
		return "with staggered buffer"
	case VarShortcut:
		return "with shortcuts"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// PhiStrategy selects the φ-kernel vectorization strategy compared in
// Fig. 5.
type PhiStrategy int

const (
	// StratCellwise vectorizes over the four phases of one cell.
	StratCellwise PhiStrategy = iota
	// StratCellwiseShortcut is cellwise with per-cell branching.
	StratCellwiseShortcut
	// StratFourCell processes four consecutive cells per iteration and
	// can only skip work when a condition holds for all four.
	StratFourCell
)

func (s PhiStrategy) String() string {
	switch s {
	case StratCellwise:
		return "cellwise"
	case StratCellwiseShortcut:
		return "cellwise, with shortcuts"
	case StratFourCell:
		return "four cells"
	}
	return fmt.Sprintf("PhiStrategy(%d)", int(s))
}

// Fields bundles the four lattices of Algorithm 1: source and destination
// fields for φ (NComp = 4) and µ (NComp = 2).
type Fields struct {
	PhiSrc, PhiDst *grid.Field
	MuSrc, MuDst   *grid.Field
}

// NewFields allocates the four lattices for a block of the given interior
// size. The φ-field uses SoA layout (the production choice, §5.1.1), µ uses
// SoA as well.
func NewFields(nx, ny, nz int) *Fields {
	return &Fields{
		PhiSrc: grid.NewField(nx, ny, nz, NP, 1, grid.SoA),
		PhiDst: grid.NewField(nx, ny, nz, NP, 1, grid.SoA),
		MuSrc:  grid.NewField(nx, ny, nz, NR, 1, grid.SoA),
		MuDst:  grid.NewField(nx, ny, nz, NR, 1, grid.SoA),
	}
}

// Swap exchanges source and destination fields (Algorithm 1, line 7).
func (f *Fields) Swap() {
	f.PhiSrc.Swap(f.PhiDst)
	f.MuSrc.Swap(f.MuDst)
}

// Clone deep-copies all four lattices.
func (f *Fields) Clone() *Fields {
	return &Fields{
		PhiSrc: f.PhiSrc.Clone(),
		PhiDst: f.PhiDst.Clone(),
		MuSrc:  f.MuSrc.Clone(),
		MuDst:  f.MuDst.Clone(),
	}
}

// Ctx carries per-sweep context: parameters, the block's global z offset
// (for the analytic temperature) and the current simulation time.
type Ctx struct {
	P    *core.Params
	ZOff int     // global z index of local z=0
	Time float64 // current simulation time
}

// TempSlice holds every temperature-dependent quantity for one z-slice,
// precomputed once per slice by the T(z) optimization instead of per cell.
type TempSlice struct {
	T, DT float64 // temperature and (T − T_E)

	// Per-phase grand-potential pieces: ω_α(µ) = −Σ_k (µ_k² Inv4A[k][α]
	// + µ_k C0T[k][α]) + B[α].
	Inv4A [NR][NP]float64
	C0T   [NR][NP]float64
	B     [NP]float64

	// Susceptibility contributions 1/(2A) and equilibrium-concentration
	// temperature slopes per phase.
	InvTwoA [NR][NP]float64
	DC0dT   [NR][NP]float64
}

// Fill populates ts for global slice z at time t.
func (ts *TempSlice) Fill(p *core.Params, zGlobal int, t float64) {
	ts.T = p.Temp.At(zGlobal, p.Dx, t)
	ts.DT = ts.T - p.Sys.TE
	for a := 0; a < NP; a++ {
		ph := &p.Sys.Phases[a]
		for k := 0; k < NR; k++ {
			ts.Inv4A[k][a] = 1 / (4 * ph.A[k])
			ts.InvTwoA[k][a] = 1 / (2 * ph.A[k])
			ts.C0T[k][a] = ph.C0[k] + ph.DC0dT[k]*ts.DT
			ts.DC0dT[k][a] = ph.DC0dT[k]
		}
		ts.B[a] = ph.B0 + ph.DBdT*ts.DT
	}
}

// GrandPots evaluates ω_α(µ,T) for all phases from the precomputed tables.
func (ts *TempSlice) GrandPots(mu *[NR]float64, out *[NP]float64) {
	for a := 0; a < NP; a++ {
		w := ts.B[a]
		for k := 0; k < NR; k++ {
			w -= mu[k]*mu[k]*ts.Inv4A[k][a] + mu[k]*ts.C0T[k][a]
		}
		out[a] = w
	}
}

// Conc evaluates c_α(µ,T) for phase a from the tables.
func (ts *TempSlice) Conc(a int, mu *[NR]float64) [NR]float64 {
	var c [NR]float64
	for k := 0; k < NR; k++ {
		c[k] = mu[k]*ts.InvTwoA[k][a] + ts.C0T[k][a]
	}
	return c
}

// grandPotsDirect evaluates ω_α(µ,T) through the thermodynamic database
// (per-cell path of the non-T(z) variants).
func grandPotsDirect(sys *thermo.System, mu *[NR]float64, dT float64, out *[NP]float64) {
	m := [NR]float64{mu[0], mu[1]}
	for a := 0; a < NP; a++ {
		out[a] = sys.Phases[a].GrandPot(m, dT)
	}
}

// Scratch holds per-goroutine staggered-value buffers sized for a block of
// nx×ny cells per slice. Buffers are reused across slices and timesteps.
type Scratch struct {
	nx, ny int

	// µ staggered buffers: flux component per reduced component.
	muX []float64 // east-face fluxes of the previous x cell: NR values
	muY []float64 // north-face fluxes of the previous y row: nx*NR
	muZ []float64 // top-face fluxes of the previous z slab: nx*ny*NR

	// φ staggered buffers: flux component per phase.
	phX []float64 // NP
	phY []float64 // nx*NP
	phZ []float64 // nx*ny*NP

	// zValidPhi/zValidMu report whether the z slab buffers hold the
	// previous slice of the current sweep.
	zValidPhi bool
	zValidMu  bool

	// µ liquid-bulk row flags (shortcut rung), indexed by y+1 for
	// y ∈ [−1, ny]: liqWin is a rolling window over φsrc slices z−1, z,
	// z+1 — liqWin[i][y+1] reports row (y, z−1+i) exactly liquid over
	// x ∈ [−1, nx] — and liqCol ANDs the three slices.
	liqWin [3][]bool
	liqCol []bool
}

// NewScratch allocates buffers for blocks up to nx×ny cells per slice.
func NewScratch(nx, ny int) *Scratch {
	return &Scratch{
		nx: nx, ny: ny,
		muX: make([]float64, NR),
		muY: make([]float64, nx*NR),
		muZ: make([]float64, nx*ny*NR),
		phX: make([]float64, NP),
		phY: make([]float64, nx*NP),
		phZ: make([]float64, nx*ny*NP),

		liqWin: [3][]bool{make([]bool, ny+2), make([]bool, ny+2), make([]bool, ny+2)},
		liqCol: make([]bool, ny+2),
	}
}

// ensure grows the scratch buffers if the block is larger than allocated.
func (s *Scratch) ensure(nx, ny int) {
	if nx <= s.nx && ny <= s.ny {
		return
	}
	*s = *NewScratch(maxInt(nx, s.nx), maxInt(ny, s.ny))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
