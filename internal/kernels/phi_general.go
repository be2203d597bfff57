package kernels

import (
	"repro/internal/core"
)

// phi_general.go emulates the starting point of the paper's optimization
// ladder: the original general-purpose phase-field code (PACE3D-style).
// That code "makes heavy use of indirect function calls via function
// pointers at cell level" and keeps the implementation structured along the
// mathematical formulation, recomputing every quantity where the formula
// mentions it. The emulation reproduces these properties: the right-hand
// side is assembled from a slice of dynamically dispatched term functions
// invoked for every cell and phase, nothing is precomputed or specialized,
// divisions and exact square roots are used throughout. Results are
// identical (within roundoff) to the optimized kernels; only the work per
// cell differs.

// phiCellState is the per-cell evaluation context handed to term functions.
type phiCellState struct {
	ctx  *Ctx
	phi  [NP]float64
	nb   [6][NP]float64 // E W N S T B
	mu   [NR]float64
	T    float64
	grad [NP]core.Vec3
}

// phiTerm is one additive contribution to the right-hand side of Eq. 1.
type phiTerm interface {
	accumulate(st *phiCellState, rhs *[NP]float64)
}

// gradientTerm evaluates T·ε(∂a/∂φ − ∇·∂a/∂∇φ).
type gradientTerm struct{}

func (gradientTerm) accumulate(st *phiCellState, rhs *[NP]float64) {
	p := st.ctx.P
	var dadphi [NP]float64
	core.GradEnergyDPhi(p, &st.phi, &st.grad, &dadphi)

	// Divergence from the six staggered faces, recomputed per cell (the
	// general code has no staggered buffering).
	var div [NP]float64
	var flux [NP]float64
	for axis := 0; axis < 3; axis++ {
		hi := &st.nb[2*axis]
		lo := &st.nb[2*axis+1]
		phiFaceFluxGeneral(p, &st.phi, hi, &flux)
		for a := 0; a < NP; a++ {
			div[a] += flux[a] / p.Dx
		}
		phiFaceFluxGeneral(p, lo, &st.phi, &flux)
		for a := 0; a < NP; a++ {
			div[a] -= flux[a] / p.Dx
		}
	}
	for a := 0; a < NP; a++ {
		rhs[a] += st.T * p.Eps * (dadphi[a] - div[a])
	}
}

// phiFaceFluxGeneral computes the normal gradient-energy flux of every
// phase at the staggered face between the lo and hi cells, in the general
// code's per-call recomputation style (divisions instead of reciprocal
// multiplication).
func phiFaceFluxGeneral(p *core.Params, lo, hi *[NP]float64, out *[NP]float64) {
	for a := 0; a < NP; a++ {
		s := 0.0
		for b := 0; b < NP; b++ {
			if b == a {
				continue
			}
			pfa := (lo[a] + hi[a]) / 2
			pfb := (lo[b] + hi[b]) / 2
			ga := (hi[a] - lo[a]) / p.Dx
			gb := (hi[b] - lo[b]) / p.Dx
			q := pfa*gb - pfb*ga
			s -= 2 * p.Gamma[a][b] * pfb * q
		}
		out[a] = s
	}
}

// obstacleTerm evaluates (T/ε)∂ω/∂φ.
type obstacleTerm struct{}

func (obstacleTerm) accumulate(st *phiCellState, rhs *[NP]float64) {
	p := st.ctx.P
	var obst [NP]float64
	core.ObstacleDPhi(p, &st.phi, &obst)
	for a := 0; a < NP; a++ {
		rhs[a] += st.T / p.Eps * obst[a]
	}
}

// drivingTerm evaluates ∂ψ/∂φ through the full thermodynamic interface.
type drivingTerm struct{}

func (drivingTerm) accumulate(st *phiCellState, rhs *[NP]float64) {
	sys := st.ctx.P.Sys
	var pots [NP]float64
	dT := st.T - sys.TE
	for a := 0; a < NP; a++ {
		pots[a] = sys.Phases[a].GrandPot(st.mu, dT)
	}
	var df [NP]float64
	core.DrivingForce(&st.phi, &pots, &df)
	for a := 0; a < NP; a++ {
		rhs[a] += df[a]
	}
}

// phiSweepGeneral runs the emulated general-purpose φ-kernel over the
// z-slab [z0,z1).
func phiSweepGeneral(ctx *Ctx, f *Fields, z0, z1 int) {
	p := ctx.P
	src, dst, mu := f.PhiSrc, f.PhiDst, f.MuSrc
	terms := []phiTerm{gradientTerm{}, obstacleTerm{}, drivingTerm{}}

	var st phiCellState
	st.ctx = ctx
	for z := z0; z < z1; z++ {
		for y := 0; y < src.NY; y++ {
			for x := 0; x < src.NX; x++ {
				loadPhi(src, x, y, z, &st.phi)
				loadPhi(src, x+1, y, z, &st.nb[0])
				loadPhi(src, x-1, y, z, &st.nb[1])
				loadPhi(src, x, y+1, z, &st.nb[2])
				loadPhi(src, x, y-1, z, &st.nb[3])
				loadPhi(src, x, y, z+1, &st.nb[4])
				loadPhi(src, x, y, z-1, &st.nb[5])
				loadMu(mu, x, y, z, &st.mu)
				st.T = p.Temp.At(ctx.ZOff+z, p.Dx, ctx.Time)
				for a := 0; a < NP; a++ {
					st.grad[a] = core.Vec3{
						(st.nb[0][a] - st.nb[1][a]) / (2 * p.Dx),
						(st.nb[2][a] - st.nb[3][a]) / (2 * p.Dx),
						(st.nb[4][a] - st.nb[5][a]) / (2 * p.Dx),
					}
				}

				var rhs [NP]float64
				for _, term := range terms {
					term.accumulate(&st, &rhs)
				}

				mean := 0.0
				for a := 0; a < NP; a++ {
					mean += rhs[a]
				}
				mean /= NP

				var out [NP]float64
				for a := 0; a < NP; a++ {
					out[a] = st.phi[a] - p.Dt/(p.Tau*p.Eps)*(rhs[a]-mean)
				}
				core.ProjectSimplex(&out)
				storePhi(dst, x, y, z, &out)
			}
		}
	}
}
