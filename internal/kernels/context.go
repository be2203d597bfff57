// Package kernels implements the two compute kernels of the solver — the
// φ-sweep (Eq. 1, D3C7) and the µ-sweep (Eq. 3, D3C19 including the
// anti-trapping current of Eq. 4) — in the two variants at the ends of the
// paper's optimization ladder (§3.3, §5.1.1):
//
//	general   — the oracle: an emulation of the original general-purpose
//	            code, with indirect per-cell function calls and no
//	            specialization (phi_general.go, mu_general.go);
//	shortcut  — the production kernels (phi_prod.go, mu_prod.go,
//	            mu_liquid.go): common-subexpression precomputation,
//	            per-z-slice tables of every temperature-dependent quantity
//	            (T = T(z,t)), staggered-value buffers that compute each face
//	            flux once, and region-dependent early exits (bulk cells skip
//	            the φ update; cells without liquid skip the anti-trapping
//	            current; rows whose whole µ stencil is pure liquid take a
//	            7-point diffusion loop instead of the D3C19 machinery).
//
// The register rule. The paper's intrinsics keep a cell's four φ lanes in
// one vector register. Go has no vector types, and its compiler keeps a
// value in registers only if cmd/compile's CanSSA accepts the type: an
// array of at most one element, or a struct of at most four fields and 32
// bytes. Any wider array — a [4]float64 lane vector, an [NP] or [NR]
// per-cell temporary — lives on the stack, and every operation on it is a
// store and a load. So the production kernels' hot paths hold no
// array-typed lane or per-cell temporary (the one exception is the array
// core.ProjectSimplex takes, filled once per φ cell): lanes are q4 (four
// phases) and g3 (a face gradient), per-cell sums are small structs or
// scalars, and neighbours are read at constant offsets (±1, ±sy, ±sz, the
// component stride) from one flat index per cell instead of through
// Field.At. Each cell runs one operation order whatever its position in
// the block, so output bits do not depend on block width or decomposition.
//
// The ladder's middle rungs (basic, simd, tz, stag) were retired; their
// last measurements are recorded in ARCHITECTURE.md ("Paper
// reproduction"). The equivalence suite (kernels_test.go) checks
// production against the oracle within roundoff, after one step and over
// a 50-step trajectory, mirroring the paper's own test strategy, the µ
// shortcuts bit for bit against the same kernel with them switched off,
// and pin_test.go pins the production sweeps' output bytes.
package kernels

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/grid"
)

// NP and NR alias the model dimensions for brevity.
const (
	NP = core.NPhases
	NR = core.NRed
	LQ = core.Liquid
)

// Variant selects a kernel implementation. The values are the wire ids
// checkpoint headers store; ids 1–4 belonged to the retired middle rungs of
// the ladder (see ckpt.Header.Variant).
type Variant int

const (
	// VarGeneral is the oracle, the emulated general-purpose code.
	VarGeneral Variant = 0
	// VarShortcut is the production kernel pair.
	VarShortcut Variant = 5
)

// Variants lists every valid variant, oracle first.
var Variants = [...]Variant{VarGeneral, VarShortcut}

func (v Variant) String() string {
	switch v {
	case VarGeneral:
		return "general purpose code"
	case VarShortcut:
		return "with shortcuts"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
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

	// Susceptibility contributions 1/(2A) per phase.
	InvTwoA [NR][NP]float64
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
		}
		ts.B[a] = ph.B0 + ph.DBdT*ts.DT
	}
}

// Scratch holds per-goroutine staggered-value buffers sized for a block of
// nx×ny cells per slice. Buffers are reused across slices and timesteps.
type Scratch struct {
	nx, ny int

	// µ staggered buffers: flux component per reduced component.
	muY []float64 // north-face fluxes of the previous y row: nx*NR
	muZ []float64 // top-face fluxes of the previous z slab: nx*ny*NR

	// φ staggered buffers: flux component per phase. The x face is
	// carried in registers from one cell to the next.
	phY []float64 // nx*NP
	phZ []float64 // nx*ny*NP

	// zValidPhi/zValidMu report whether the z slab buffers hold the
	// previous slice of the current sweep.
	zValidPhi bool
	zValidMu  bool

	// µ liquid-bulk row flags, indexed by y+1 for y ∈ [−1, ny]: liqWin
	// is a rolling window over φsrc slices z−1, z, z+1 — liqWin[i][y+1]
	// reports row (y, z−1+i) exactly liquid over x ∈ [−1, nx] — and
	// liqCol ANDs the three slices.
	liqWin [3][]bool
	liqCol []bool
}

// NewScratch allocates buffers for blocks up to nx×ny cells per slice.
func NewScratch(nx, ny int) *Scratch {
	return &Scratch{
		nx: nx, ny: ny,
		muY: make([]float64, nx*NR),
		muZ: make([]float64, nx*ny*NR),
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
