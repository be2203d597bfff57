package kernels

import (
	"repro/internal/core"
)

// phi_prod.go implements the production φ-kernel, vectorized cellwise
// (§5.1.1): one q4 holds the four phase values of a single cell, so the
// field is updated cell by cell and per-cell branching (the bulk shortcut)
// remains possible. The price is horizontal operations when single
// components of the φ vector appear in a term (e.g. φ_α·Σ_β φ_β); the
// benefit is fewer live registers and per-cell early exits — the paper
// measured it ahead of four-cell vectorization in every composition.
// Common subexpressions are precomputed aggressively — the driving force
// collapses to w'(φ_α)/S · (ω_α − ω·h), the triple-obstacle sum to a closed
// form in Σφ and Σφ² — the grand potentials come from per-slice
// temperature tables, and each staggered face flux is computed once and
// buffered for the neighbor that shares the face.

// gamma4 holds the rows of the γ matrix.
type gamma4 struct{ r0, r1, r2, r3 q4 }

// rowDots returns (r_α·v) for every row α.
func (g *gamma4) rowDots(v q4) q4 {
	return q4{g.r0.dot(v), g.r1.dot(v), g.r2.dot(v), g.r3.dot(v)}
}

// faceFlux computes, for all phases with the phases in lanes, the normal
// component of the gradient-energy flux ∂a/∂∇φ_α at the staggered face
// between the lo and hi cells along one axis. For the isotropic gradient
// energy a = Σ γ_{αβ}|q_{αβ}|² the normal component needs only the normal
// derivative — the reason the φ-kernel is a D3C7 stencil. The factored
// common-subexpression form
//
//	F_α = −2[ pf_α (γ_row·(pf∘g)) − g_α (γ_row·(pf∘pf)) ]
//
// shares pf∘g and pf∘pf across all four phases.
func (g *gamma4) faceFlux(lo, hi q4, invDx float64) q4 {
	pf := lo.add(hi).scale(0.5)
	gr := hi.sub(lo).scale(invDx)
	u := g.rowDots(pf.mul(gr))
	pp := g.rowDots(pf.mul(pf))
	return q4{
		-2 * (pf.a0*u.a0 - gr.a0*pp.a0),
		-2 * (pf.a1*u.a1 - gr.a1*pp.a1),
		-2 * (pf.a2*u.a2 - gr.a2*pp.a2),
		-2 * (pf.a3*u.a3 - gr.a3*pp.a3),
	}
}

// dadphi returns one axis's term of ∂a/∂φ_α = 2 Σ_d [φ_α (γ_row·(g_d∘g_d))
// − g_dα (γ_row·(φ∘g_d))], with g∘g and φ∘g shared across phases (CSE).
func (g *gamma4) dadphi(phi, gd q4) q4 {
	gg := g.rowDots(gd.mul(gd))
	pg := g.rowDots(phi.mul(gd))
	return q4{
		2 * (phi.a0*gg.a0 - gd.a0*pg.a0),
		2 * (phi.a1*gg.a1 - gd.a1*pg.a1),
		2 * (phi.a2*gg.a2 - gd.a2*pg.a2),
		2 * (phi.a3*gg.a3 - gd.a3*pg.a3),
	}
}

// grandPots evaluates ω_α(µ,T) = B_α − Σ_k (µ_k² Inv4A[k][α] + µ_k C0T[k][α])
// for all phases in lanes from the slice tables.
func grandPots(ts *TempSlice, mu0, mu1 float64) q4 {
	w := row4(&ts.B)
	w = w.sub(row4(&ts.Inv4A[0]).scale(mu0 * mu0)).sub(row4(&ts.C0T[0]).scale(mu0))
	return w.sub(row4(&ts.Inv4A[1]).scale(mu1 * mu1)).sub(row4(&ts.C0T[1]).scale(mu1))
}

// bulkCell reports whether a cell with value c and face neighbours e, w,
// n, s, t, b is a bulk cell in the sense of the shortcut optimization: a
// simplex vertex whose six face neighbors all equal it, so both ∂φ/∂t and
// all staggered fluxes vanish.
func bulkCell(c, e, w, n, s, t, b q4) bool {
	bit := func(v float64) bool { return v == 0 || v == 1 }
	if !bit(c.a0) || !bit(c.a1) || !bit(c.a2) || !bit(c.a3) ||
		(c.a0 != 1 && c.a1 != 1 && c.a2 != 1 && c.a3 != 1) {
		return false
	}
	return c == e && c == w && c == n && c == s && c == t && c == b
}

// phiSweepProd is the production φ-kernel over the z-slab [z0,z1).
func phiSweepProd(ctx *Ctx, f *Fields, sc *Scratch, z0, z1 int) {
	p := ctx.P
	nx, ny := f.PhiSrc.NX, f.PhiSrc.NY
	sc.ensure(nx, ny)
	st := sweepStrides(f)
	sy, sz, cs := st.sy, st.sz, st.cs
	src, dst, mu := f.PhiSrc.Data, f.PhiDst.Data, f.MuSrc.Data

	invDx := 1 / p.Dx
	halfInvDx := 0.5 * invDx
	invEps := 1 / p.Eps
	dtFac := p.Dt / (p.Tau * p.Eps)
	obstPref := core.ObstaclePrefactor
	gT := p.GammaTriple
	gm := gamma4{row4(&p.Gamma[0]), row4(&p.Gamma[1]), row4(&p.Gamma[2]), row4(&p.Gamma[3])}

	var ts TempSlice
	phY := sc.phY[:nx*NP]
	sc.zValidPhi = false
	for z := z0; z < z1; z++ {
		ts.Fill(p, ctx.ZOff+z, ctx.Time)
		T := ts.T
		for y := 0; y < ny; y++ {
			row := f.PhiSrc.Idx(0, 0, y, z)
			phZ := sc.phZ[y*sc.nx*NP:][:nx*NP]
			// The low x face of cell x is the high x face of cell x−1.
			var carryX q4
			for x := 0; x < nx; x++ {
				i := row + x
				phiC := load4(src, i, cs)
				nbE, nbW := load4(src, i+1, cs), load4(src, i-1, cs)
				nbN, nbS := load4(src, i+sy, cs), load4(src, i-sy, cs)
				nbT, nbB := load4(src, i+sz, cs), load4(src, i-sz, cs)
				by, bz := phY[x*NP:][:NP], phZ[x*NP:][:NP]

				if bulkCell(phiC, nbE, nbW, nbN, nbS, nbT, nbB) {
					// Bulk region B_α: ∂φ/∂t = 0 and every
					// staggered flux vanishes.
					phiC.store(dst, i, cs)
					carryX = q4{}
					q4{}.store(by, 0, 1)
					q4{}.store(bz, 0, 1)
					continue
				}

				gX := nbE.sub(nbW).scale(halfInvDx)
				gY := nbN.sub(nbS).scale(halfInvDx)
				gZ := nbT.sub(nbB).scale(halfInvDx)
				dadphi := q4{}.add(gm.dadphi(phiC, gX)).add(gm.dadphi(phiC, gY)).add(gm.dadphi(phiC, gZ))

				// Divergence of the staggered fluxes: the three high
				// faces are computed, the low faces reused from the
				// carry and the buffers except at block/slab starts.
				hiX := gm.faceFlux(phiC, nbE, invDx)
				loX := carryX
				if x == 0 {
					loX = gm.faceFlux(nbW, phiC, invDx)
				}
				carryX = hiX
				hiY := gm.faceFlux(phiC, nbN, invDx)
				loY := load4(by, 0, 1)
				if y == 0 {
					loY = gm.faceFlux(nbS, phiC, invDx)
				}
				hiY.store(by, 0, 1)
				hiZ := gm.faceFlux(phiC, nbT, invDx)
				// The z slab buffer is valid from the second slice on.
				loZ := load4(bz, 0, 1)
				if !sc.zValidPhi {
					loZ = gm.faceFlux(nbB, phiC, invDx)
				}
				hiZ.store(bz, 0, 1)
				div := q4{}.add(hiX.sub(loX).scale(invDx)).
					add(hiY.sub(loY).scale(invDx)).
					add(hiZ.sub(loZ).scale(invDx))

				// Obstacle potential derivative:
				// (16/π²)(γ_row·φ) + γ_T·((S1−φ_α)² − (S2−φ_α²))/2.
				s1 := phiC.hsum()
				s2 := phiC.dot(phiC)
				gp := gm.rowDots(phiC)
				r := splat(s1).sub(phiC)
				obst := q4{
					obstPref*gp.a0 + 0.5*gT*(r.a0*r.a0-(s2-phiC.a0*phiC.a0)),
					obstPref*gp.a1 + 0.5*gT*(r.a1*r.a1-(s2-phiC.a1*phiC.a1)),
					obstPref*gp.a2 + 0.5*gT*(r.a2*r.a2-(s2-phiC.a2*phiC.a2)),
					obstPref*gp.a3 + 0.5*gT*(r.a3*r.a3-(s2-phiC.a3*phiC.a3)),
				}

				// Driving force ∂ψ/∂φ_α = w'(φ_α)/S (ω_α − ω·h).
				pots := grandPots(&ts, mu[i], mu[i+cs])
				w := phiC.mul(phiC).mul(splat(3).sub(phiC.scale(2)))
				var df q4
				if sw := w.hsum(); sw > 0 {
					invS := 1 / sw
					h := w.scale(invS)
					wDot := pots.dot(h)
					wd := phiC.mul(splat(1).sub(phiC)).scale(6)
					df = wd.scale(invS).mul(pots.sub(splat(wDot)))
				}

				rhs := dadphi.sub(div).scale(T * p.Eps).
					add(obst.scale(T * invEps)).
					add(df)
				mean := rhs.hsum() / NP
				outV := phiC.sub(rhs.sub(splat(mean)).scale(dtFac))

				out := [NP]float64{outV.a0, outV.a1, outV.a2, outV.a3}
				core.ProjectSimplex(&out)
				q4{out[0], out[1], out[2], out[3]}.store(dst, i, cs)
			}
		}
		sc.zValidPhi = true
	}
}
