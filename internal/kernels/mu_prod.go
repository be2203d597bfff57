package kernels

import (
	"repro/internal/core"
)

// mu_prod.go implements the production µ-kernel (Eq. 3): the evolution of
// the two reduced chemical potentials with gradient flux M∇µ,
// anti-trapping current J_at (Eq. 4) and the φ- and T-coupling source
// terms. The kernel is a D3C19 stencil on φ (face-transverse gradients
// touch the planar diagonal neighbors) and needs both φ(t) and φ(t+Δt),
// matching Fig. 1(b). Cells are updated one at a time along x. Each
// staggered face flux is computed once: the x face is carried in registers
// from a cell to its +x neighbour, the y and z faces go through the
// Scratch buffers, and only a row's, a block's or a slab's first face is
// computed for its low side. Every cell runs the same operation order, so
// µ does not depend on where a block starts or how wide it is. Rows whose
// whole stencil is pure liquid take muSweep.liquidBulk (mu_liquid.go).

// Guard tolerances for the anti-trapping term.
const (
	tolPhiProd = 1e-9  // minimum φ_α·φ_ℓ at a face
	tolGrad2   = 1e-12 // minimum squared gradient norm
)

// muSweep carries everything one µ sweep's cell updates and face fluxes
// need. The four fields share one shape, so one flat cell index i
// addresses all of them; component c of cell i sits at i + c·cs.
type muSweep struct {
	phiS, phiD, muS, muD []float64
	strides
	off   [3]int    // flat offset of the +axis neighbour
	trans [3][2]int // flat offsets of the two axes transverse to axis, in axis order

	ts     *TempSlice // tables of the current slice
	tsPrev *TempSlice // tables of the slice below (low z faces)

	// shortcut enables the solid-region anti-trapping skip and the
	// liquid-bulk rows; off, the sweep is the bitwise reference the
	// shortcut tests compare against.
	shortcut bool
	at       bool    // anti-trapping current on (AT ≠ 0)
	atPref   float64 // π/4·ε·AT
	invDx    float64
	q        float64 // 1/(4Δx), the transverse-gradient factor
	invDt    float64
	dt       float64
	// dInvTwoA[k][a] = D_a/(2A_k,a), the precomputed mobility product;
	// srcT[k][a] = ∂c_k,a/∂T·∂T/∂t.
	dInvTwoA [NR][NP]float64
	srcT     [NR][NP]float64
}

// g3 is a face gradient in x, y, z order.
type g3 struct{ x, y, z float64 }

func (g g3) norm2() float64 { return g.x*g.x + g.y*g.y + g.z*g.z }

func (g g3) dot(h g3) float64 { return g.x*h.x + g.y*h.y + g.z*h.z }

// along returns the component normal to an axis face.
func (g g3) along(axis int) float64 {
	switch axis {
	case 0:
		return g.x
	case 1:
		return g.y
	}
	return g.z
}

// interp is core.Interp in registers, in the same operation order.
func interp(p q4) q4 {
	w := p.mul(p).mul(splat(3).sub(p.scale(2)))
	sum := 0 + w.a0 + w.a1 + w.a2 + w.a3
	if sum <= 0 {
		return p
	}
	return w.scale(1 / sum)
}

// muSweepProd runs the production µ-kernel over the z-slab [z0,z1).
// shortcut is on in production; off, the sweep is the bitwise reference
// the shortcut tests compare against.
func muSweepProd(ctx *Ctx, f *Fields, sc *Scratch, shortcut bool, z0, z1 int) {
	p := ctx.P
	nx, ny := f.MuSrc.NX, f.MuSrc.NY
	sc.ensure(nx, ny)
	s := sweepStrides(f)
	invDx := 1 / p.Dx
	m := muSweep{
		phiS: f.PhiSrc.Data, phiD: f.PhiDst.Data, muS: f.MuSrc.Data, muD: f.MuDst.Data,
		strides:  s,
		off:      [3]int{1, s.sy, s.sz},
		trans:    [3][2]int{{s.sy, s.sz}, {1, s.sz}, {1, s.sy}},
		shortcut: shortcut,
		at:       p.AT != 0,
		atPref:   core.ATPrefactor * p.Eps * p.AT,
		invDx:    invDx,
		q:        0.25 * invDx,
		invDt:    1 / p.Dt,
		dt:       p.Dt,
	}
	dTdt := p.Temp.DTdt()
	for a := 0; a < NP; a++ {
		for k := 0; k < NR; k++ {
			m.dInvTwoA[k][a] = p.D[a] / (2 * p.Sys.Phases[a].A[k])
			m.srcT[k][a] = p.Sys.Phases[a].DC0dT[k] * dTdt
		}
	}

	var ts, tsPrev TempSlice
	m.ts, m.tsPrev = &ts, &tsPrev
	sc.zValidMu = false
	for z := z0; z < z1; z++ {
		ts.Fill(p, ctx.ZOff+z, ctx.Time)
		if z == z0 {
			tsPrev.Fill(p, ctx.ZOff+z-1, ctx.Time)
		}
		if shortcut {
			sc.slideLiquidRows(f.PhiSrc, z, z == z0)
		}
		for y := 0; y < ny; y++ {
			if shortcut && sc.liquidBulkRow(f.PhiDst, y, z) {
				m.liquidBulk(sc, f.MuSrc.Idx(0, 0, y, z), nx, y)
				continue
			}
			m.row(sc, f.MuSrc.Idx(0, 0, y, z), nx, y)
		}
		sc.zValidMu = true
	}
}

// hasLiquid reports whether cell i or any face neighbor carries liquid
// phase; if not, every staggered face has φ_ℓ = 0 and the anti-trapping
// current vanishes identically (the µ-kernel solid shortcut).
func (m *muSweep) hasLiquid(i int) bool {
	l := i + LQ*m.cs
	d := m.phiS
	return d[l] != 0 || d[l+1] != 0 || d[l-1] != 0 ||
		d[l+m.sy] != 0 || d[l-m.sy] != 0 || d[l+m.sz] != 0 || d[l-m.sz] != 0
}

// row updates the nx cells of the row starting at flat index base (x = 0,
// row y of the current slice).
func (m *muSweep) row(sc *Scratch, base, nx, y int) {
	cs, invDx := m.cs, m.invDx
	yBuf := sc.muY[:nx*NR]
	zBuf := sc.muZ[y*sc.nx*NR:][:nx*NR]
	var cx0, cx1 float64 // the high x face of the previous cell
	for x := 0; x < nx; x++ {
		i := base + x
		// The anti-trapping current is skipped where no face of the
		// cell carries liquid: there it is exactly +0.
		skip := m.shortcut && !m.hasLiquid(i)

		// --- Staggered flux divergence, x then y then z --------------
		hx0, hx1 := m.faceFlux(i, 0, m.ts, skip)
		lx0, lx1 := cx0, cx1
		if x == 0 {
			lx0, lx1 = m.faceFlux(i-1, 0, m.ts, skip)
		}
		cx0, cx1 = hx0, hx1
		div0 := 0 + (hx0-lx0)*invDx
		div1 := 0 + (hx1-lx1)*invDx

		hy0, hy1 := m.faceFlux(i, 1, m.ts, skip)
		yb := yBuf[x*NR:][:NR]
		ly0, ly1 := yb[0], yb[1]
		if y == 0 {
			ly0, ly1 = m.faceFlux(i-m.sy, 1, m.ts, skip)
		}
		yb[0], yb[1] = hy0, hy1
		div0 += (hy0 - ly0) * invDx
		div1 += (hy1 - ly1) * invDx

		hz0, hz1 := m.faceFlux(i, 2, m.ts, skip)
		zb := zBuf[x*NR:][:NR]
		lz0, lz1 := zb[0], zb[1]
		if !sc.zValidMu {
			// A z face is evaluated with its lower slice's tables,
			// so recomputed and buffered values agree bitwise.
			lz0, lz1 = m.faceFlux(i-m.sz, 2, m.tsPrev, skip)
		}
		zb[0], zb[1] = hz0, hz1
		div0 += (hz0 - lz0) * invDx
		div1 += (hz1 - lz1) * invDx

		// --- Local terms ---------------------------------------------
		// Interpolation weights of φ(t) and φ(t+Δt); a vanishing
		// weight sum gives h = 0.
		pc, pd := load4(m.phiS, i, cs), load4(m.phiD, i, cs)
		wS := pc.mul(pc).mul(splat(3).sub(pc.scale(2)))
		wD := pd.mul(pd).mul(splat(3).sub(pd.scale(2)))
		invS, invD := 0.0, 0.0
		if sumS := 0 + wS.a0 + wS.a1 + wS.a2 + wS.a3; sumS > 0 {
			invS = 1 / sumS
		}
		if sumD := 0 + wD.a0 + wD.a1 + wD.a2 + wD.a3; sumD > 0 {
			invD = 1 / sumD
		}
		mu0, mu1 := m.muS[i], m.muS[i+cs]
		var l local
		l = m.phaseTerms(l, 0, mu0, mu1, wS.a0*invS, wD.a0*invD)
		l = m.phaseTerms(l, 1, mu0, mu1, wS.a1*invS, wD.a1*invD)
		l = m.phaseTerms(l, 2, mu0, mu1, wS.a2*invS, wD.a2*invD)
		l = m.phaseTerms(l, 3, mu0, mu1, wS.a3*invS, wD.a3*invD)

		m.muD[i] = ((l.src0+div0)*m.dt)/l.chi0 + mu0
		m.muD[i+cs] = ((l.src1+div1)*m.dt)/l.chi1 + mu1
	}
}

// local is one cell's running source and susceptibility sums per reduced
// component, from +0.
type local struct{ src0, src1, chi0, chi1 float64 }

// phaseTerms adds phase a's share to l, for a cell at µ = (mu0, mu1) whose
// interpolation weights of φ(t) and φ(t+Δt) are hS and hD:
// src −= c_a(µ,T)·∂h_a/∂t, χ += h_a/(2A_a), then src −= h_a·∂c_a/∂T·∂T/∂t.
func (m *muSweep) phaseTerms(l local, a int, mu0, mu1, hS, hD float64) local {
	ts := m.ts
	dh := (hD - hS) * m.invDt
	ca0 := mu0*ts.InvTwoA[0][a] + ts.C0T[0][a]
	ca1 := mu1*ts.InvTwoA[1][a] + ts.C0T[1][a]
	l.src0 -= ca0 * dh
	l.src1 -= ca1 * dh
	l.chi0 += hS * ts.InvTwoA[0][a]
	l.chi1 += hS * ts.InvTwoA[1][a]
	l.src0 -= hS * m.srcT[0][a]
	l.src1 -= hS * m.srcT[1][a]
	return l
}

// faceFlux returns the total flux G = M(φ,T)∇µ·n − J_at·n of both
// components at the face between cell i and its +axis neighbour. ft holds
// the tables of the face's lower slice. The face average of φ and its
// interpolation weights are evaluated once and shared by both terms.
func (m *muSweep) faceFlux(i, axis int, ft *TempSlice, skipJat bool) (float64, float64) {
	o, cs := m.off[axis], m.cs
	phiF := load4(m.phiS, i, cs).add(load4(m.phiS, i+o, cs)).scale(0.5)
	hf := interp(phiF)
	d := &m.dInvTwoA
	m0 := 0 + hf.a0*d[0][0] + hf.a1*d[0][1] + hf.a2*d[0][2] + hf.a3*d[0][3]
	m1 := 0 + hf.a0*d[1][0] + hf.a1*d[1][1] + hf.a2*d[1][2] + hf.a3*d[1][3]
	f0 := m0 * ((m.muS[i+o] - m.muS[i]) * m.invDx)
	f1 := m1 * ((m.muS[i+cs+o] - m.muS[i+cs]) * m.invDx)
	// First check: no liquid at the face ⇒ h_ℓ = 0 ⇒ J_at = 0.
	if skipJat || !m.at || phiF.a3 <= tolPhiProd || hf.a3 <= 0 {
		return f0, f1
	}
	j0, j1 := m.jat(i, axis, ft, phiF, hf.a3)
	return f0 - j0, f1 - j1
}

// jatFace holds the per-face values every solid phase's anti-trapping
// term shares.
type jatFace struct {
	i, axis    int
	ft         *TempSlice
	phiL       float64 // face-averaged φ_ℓ
	gl         g3      // face gradient of φ_ℓ
	invNl      float64 // 1/|∇φ_ℓ|
	muF0, muF1 float64 // face-averaged µ
	cl0, cl1   float64 // c_ℓ(µ_F, T)
	pref0      float64 // π/4·ε·AT·h_ℓ
}

// jat computes the anti-trapping flux J_at·n at the face between cell i
// and its +axis neighbour (Eq. 4), given the face's averaged φ and h_ℓ.
// The early-exit guards on φ_ℓ and ∇φ_ℓ are the checks §3.3 describes; the
// face gradients are evaluated lazily per phase, only for the liquid and
// the solids actually present at the face.
func (m *muSweep) jat(i, axis int, ft *TempSlice, phiF q4, hl float64) (float64, float64) {
	gl := m.faceGrad(i+LQ*m.cs, axis)
	n2l := gl.norm2()
	// Second check: vanishing liquid gradient ⇒ skip.
	if n2l < tolGrad2 {
		return 0, 0
	}
	o, cs := m.off[axis], m.cs
	f := jatFace{i: i, axis: axis, ft: ft, phiL: phiF.a3, gl: gl, invNl: fastRSqrt2(n2l)}
	f.muF0 = 0.5 * (m.muS[i] + m.muS[i+o])
	f.muF1 = 0.5 * (m.muS[i+cs] + m.muS[i+cs+o])
	f.cl0 = f.muF0*ft.InvTwoA[0][LQ] + ft.C0T[0][LQ]
	f.cl1 = f.muF1*ft.InvTwoA[1][LQ] + ft.C0T[1][LQ]
	f.pref0 = m.atPref * hl
	// A dropped phase adds +0, which leaves a sum started at +0 unchanged.
	a0, a1 := m.jatTerm(&f, 0, phiF.a0)
	b0, b1 := m.jatTerm(&f, 1, phiF.a1)
	c0, c1 := m.jatTerm(&f, 2, phiF.a2)
	return 0 + a0 + b0 + c0, 0 + a1 + b1 + c1
}

// jatTerm returns solid phase a's contribution to J_at·n at face f, whose
// averaged φ_a is phiA, or +0 where a guard drops the phase.
func (m *muSweep) jatTerm(f *jatFace, a int, phiA float64) (float64, float64) {
	if phiA <= tolPhiProd {
		return 0, 0
	}
	ia := f.i + a*m.cs
	ga := m.faceGrad(ia, f.axis)
	n2a := ga.norm2()
	if n2a < tolGrad2 {
		return 0, 0
	}
	invNa := fastRSqrt2(n2a)
	ndot := ga.dot(f.gl) * invNa * f.invNl

	o := m.off[f.axis]
	dphidt := 0.5 * ((m.phiD[ia] - m.phiS[ia]) + (m.phiD[ia+o] - m.phiS[ia+o])) * m.invDt
	ft := f.ft
	ca0 := f.muF0*ft.InvTwoA[0][a] + ft.C0T[0][a]
	ca1 := f.muF1*ft.InvTwoA[1][a] + ft.C0T[1][a]

	pref := f.pref0 * core.GAT(phiA) * fastRSqrt2(phiA*f.phiL) * dphidt * ndot
	nAxis := ga.along(f.axis) * invNa
	return pref * (f.cl0 - ca0) * nAxis, pref * (f.cl1 - ca1) * nAxis
}

// faceGrad computes the full gradient of one φ component at the staggered
// face between flat index i and its +axis neighbour: the normal component
// is the direct difference, the transverse ones average the central
// differences of the two adjacent cells (the planar diagonal neighbours
// that make the kernel D3C19).
func (m *muSweep) faceGrad(i, axis int) g3 {
	d := m.phiS
	o, ta, tb := m.off[axis], m.trans[axis][0], m.trans[axis][1]
	n := (d[i+o] - d[i]) * m.invDx
	u := (d[i+ta] + d[i+o+ta] - d[i-ta] - d[i+o-ta]) * m.q
	v := (d[i+tb] + d[i+o+tb] - d[i-tb] - d[i+o-tb]) * m.q
	switch axis {
	case 0:
		return g3{n, u, v}
	case 1:
		return g3{u, n, v}
	}
	return g3{u, v, n}
}
