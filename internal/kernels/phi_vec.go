package kernels

import (
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/simd"
)

// phi_vec.go implements the production φ-kernel, vectorized cellwise
// (§5.1.1): one SIMD vector holds the four phase values of a single cell,
// so the field is updated cell by cell and per-cell branching (the bulk
// shortcut) remains possible. The price is permute-style horizontal
// operations when single components of the φ vector appear in a term (e.g.
// φ_α·Σ_β φ_β); the benefit is fewer live registers and per-cell early
// exits — the paper measured it ahead of four-cell vectorization in every
// composition. Common subexpressions are precomputed aggressively — the
// driving force collapses to w'(φ_α)/S · (ω_α − ω·h), the triple-obstacle
// sum to a closed form in Σφ and Σφ² — the grand potentials come from
// per-slice temperature tables, and each staggered face flux is computed
// once and buffered for the neighbor that shares the face.

// phiGammaRows caches the rows of the γ matrix as SIMD vectors.
func phiGammaRows(p *core.Params) [NP]simd.Vec4 {
	var rows [NP]simd.Vec4
	for a := 0; a < NP; a++ {
		for b := 0; b < NP; b++ {
			rows[a][b] = p.Gamma[a][b]
		}
	}
	return rows
}

func loadPhiVec(f *grid.Field, x, y, z int) simd.Vec4 {
	return simd.Set(f.At(0, x, y, z), f.At(1, x, y, z), f.At(2, x, y, z), f.At(3, x, y, z))
}

// phiFaceFluxVec computes, for all phases with the phases in SIMD lanes,
// the normal component of the gradient-energy flux ∂a/∂∇φ_α at the
// staggered face between the lo and hi cells along one axis. For the
// isotropic gradient energy a = Σ γ_{αβ}|q_{αβ}|² the normal component
// needs only the normal derivative — the reason the φ-kernel is a D3C7
// stencil. The factored common-subexpression form
//
//	F_α = −2[ pf_α (γ_row·(pf∘g)) − g_α (γ_row·(pf∘pf)) ]
//
// shares pf∘g and pf∘pf across all four phases.
func phiFaceFluxVec(gamma *[NP]simd.Vec4, lo, hi simd.Vec4, invDx float64) simd.Vec4 {
	pf := lo.Add(hi).Scale(0.5)
	g := hi.Sub(lo).Scale(invDx)
	u := pf.Mul(g)
	pp := pf.Mul(pf)
	var out simd.Vec4
	for a := 0; a < NP; a++ {
		out[a] = -2 * (pf[a]*gamma[a].Dot(u) - g[a]*gamma[a].Dot(pp))
	}
	return out
}

// tempVecs holds the per-slice thermodynamic tables in SIMD form (phases in
// lanes).
type tempVecs struct {
	T          float64
	b          simd.Vec4     // B_α(T)
	inv4A, c0T [NR]simd.Vec4 // µ² and µ coefficients per reduced component
}

func (tv *tempVecs) fill(ts *TempSlice) {
	tv.T = ts.T
	for a := 0; a < NP; a++ {
		tv.b[a] = ts.B[a]
		for k := 0; k < NR; k++ {
			tv.inv4A[k][a] = ts.Inv4A[k][a]
			tv.c0T[k][a] = ts.C0T[k][a]
		}
	}
}

// grandPotsVec evaluates ω_α(µ,T) for all phases in lanes.
func (tv *tempVecs) grandPotsVec(mu *[NR]float64) simd.Vec4 {
	w := tv.b
	for k := 0; k < NR; k++ {
		w = w.Sub(tv.inv4A[k].Scale(mu[k] * mu[k])).Sub(tv.c0T[k].Scale(mu[k]))
	}
	return w
}

// phiSweepVec is the production φ-kernel over the z-slab [z0,z1).
func phiSweepVec(ctx *Ctx, f *Fields, sc *Scratch, z0, z1 int) {
	p := ctx.P
	src, dst, mu := f.PhiSrc, f.PhiDst, f.MuSrc
	nx, ny := src.NX, src.NY
	sc.ensure(nx, ny)

	invDx := 1 / p.Dx
	halfInvDx := 0.5 * invDx
	invEps := 1 / p.Eps
	dtFac := p.Dt / (p.Tau * p.Eps)
	obstPref := core.ObstaclePrefactor
	gT := p.GammaTriple
	gamma := phiGammaRows(p)

	var ts TempSlice
	var tv tempVecs
	var muC [NR]float64

	sc.zValidPhi = false
	for z := z0; z < z1; z++ {
		ts.Fill(p, ctx.ZOff+z, ctx.Time)
		tv.fill(&ts)
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				if isBulkCell(src, x, y, z) {
					// Bulk region B_α: ∂φ/∂t = 0 and every
					// staggered flux vanishes.
					for a := 0; a < NP; a++ {
						dst.Set(a, x, y, z, src.At(a, x, y, z))
					}
					zeroPhiBuffers(sc, x, y)
					continue
				}

				phiC := loadPhiVec(src, x, y, z)
				nbE := loadPhiVec(src, x+1, y, z)
				nbW := loadPhiVec(src, x-1, y, z)
				nbN := loadPhiVec(src, x, y+1, z)
				nbS := loadPhiVec(src, x, y-1, z)
				nbT := loadPhiVec(src, x, y, z+1)
				nbB := loadPhiVec(src, x, y, z-1)

				gX := nbE.Sub(nbW).Scale(halfInvDx)
				gY := nbN.Sub(nbS).Scale(halfInvDx)
				gZ := nbT.Sub(nbB).Scale(halfInvDx)

				// ∂a/∂φ_α = 2 Σ_d [φ_α (γ_row·(g_d∘g_d)) − g_dα (γ_row·(φ∘g_d))]
				// with g∘g and φ∘g shared across phases (CSE).
				var dadphi simd.Vec4
				for _, g := range [3]simd.Vec4{gX, gY, gZ} {
					gg := g.Mul(g)
					pg := phiC.Mul(g)
					for a := 0; a < NP; a++ {
						dadphi[a] += 2 * (phiC[a]*gamma[a].Dot(gg) - g[a]*gamma[a].Dot(pg))
					}
				}

				// Divergence of the staggered fluxes: the three high
				// faces are computed, the low faces reused from the
				// buffers except at block/slab starts.
				var div simd.Vec4
				lows := [3]simd.Vec4{nbW, nbS, nbB}
				highs := [3]simd.Vec4{nbE, nbN, nbT}
				for axis := 0; axis < 3; axis++ {
					hi := phiFaceFluxVec(&gamma, phiC, highs[axis], invDx)
					lo, ok := loadPhiBuffer(sc, axis, x, y)
					if !ok {
						lo = phiFaceFluxVec(&gamma, lows[axis], phiC, invDx)
					}
					div = div.Add(hi.Sub(lo).Scale(invDx))
					storePhiBuffer(sc, axis, x, y, hi)
				}

				// Obstacle potential derivative:
				// (16/π²)(γ_row·φ) + γ_T·((S1−φ_α)² − (S2−φ_α²))/2.
				s1 := phiC.HSum()
				s2 := phiC.Dot(phiC)
				var obst simd.Vec4
				for a := 0; a < NP; a++ {
					r := s1 - phiC[a]
					obst[a] = obstPref*gamma[a].Dot(phiC) +
						0.5*gT*(r*r-(s2-phiC[a]*phiC[a]))
				}

				// Driving force ∂ψ/∂φ_α = w'(φ_α)/S (ω_α − ω·h).
				muC[0] = mu.At(0, x, y, z)
				muC[1] = mu.At(1, x, y, z)
				pots := tv.grandPotsVec(&muC)
				w := phiC.Mul(phiC).Mul(simd.Splat(3).Sub(phiC.Scale(2)))
				var df simd.Vec4
				if sw := w.HSum(); sw > 0 {
					invS := 1 / sw
					h := w.Scale(invS)
					wDot := pots.Dot(h)
					wd := phiC.Mul(simd.Splat(1).Sub(phiC)).Scale(6)
					df = wd.Scale(invS).Mul(pots.Sub(simd.Splat(wDot)))
				}

				T := ts.T
				rhs := dadphi.Sub(div).Scale(T * p.Eps).
					Add(obst.Scale(T * invEps)).
					Add(df)
				mean := rhs.HSum() / NP
				outV := phiC.Sub(rhs.Sub(simd.Splat(mean)).Scale(dtFac))

				var out [NP]float64
				outV.Store(out[:])
				core.ProjectSimplex(&out)
				storePhi(dst, x, y, z, &out)
			}
		}
		sc.zValidPhi = true
	}
}

// Staggered-buffer plumbing: lane a of a buffered flux belongs to phase a
// (NP equals the vector width).

func zeroPhiBuffers(sc *Scratch, x, y int) {
	for a := 0; a < NP; a++ {
		sc.phX[a] = 0
		sc.phY[x*NP+a] = 0
		sc.phZ[(y*sc.nx+x)*NP+a] = 0
	}
}

// loadPhiBuffer fetches the buffered low-face flux for the given axis; it
// reports false at block-boundary cells where no buffered value exists and
// the face must be computed explicitly.
func loadPhiBuffer(sc *Scratch, axis, x, y int) (simd.Vec4, bool) {
	switch axis {
	case 0:
		if x == 0 {
			return simd.Vec4{}, false
		}
		return simd.Load(sc.phX), true
	case 1:
		if y == 0 {
			return simd.Vec4{}, false
		}
		return simd.Load(sc.phY[x*NP:]), true
	default:
		// The z slab buffer is valid from the second slice onward.
		if !sc.zValidPhi {
			return simd.Vec4{}, false
		}
		return simd.Load(sc.phZ[(y*sc.nx+x)*NP:]), true
	}
}

func storePhiBuffer(sc *Scratch, axis, x, y int, flux simd.Vec4) {
	switch axis {
	case 0:
		flux.Store(sc.phX)
	case 1:
		flux.Store(sc.phY[x*NP:])
	default:
		flux.Store(sc.phZ[(y*sc.nx+x)*NP:])
	}
}
