package kernels

import (
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/simd"
)

// mu_scalar.go holds the per-face and per-cell pieces of the production
// µ-kernel (Eq. 3): the evolution of the two reduced chemical potentials
// with gradient flux M∇µ, anti-trapping current J_at (Eq. 4) and the φ- and
// T-coupling source terms. The kernel is a D3C19 stencil on φ
// (face-transverse gradients touch the planar diagonal neighbors) and needs
// both φ(t) and φ(t+Δt), matching Fig. 1(b). The sweep itself is in
// mu_fourcell.go.

// Guard tolerances for the anti-trapping term.
const (
	tolPhiProd = 1e-9  // minimum φ_α·φ_ℓ at a face
	tolGrad2   = 1e-12 // minimum squared gradient norm
)

// muFaceState carries everything the face-flux evaluation needs.
type muFaceState struct {
	ctx    *Ctx
	f      *Fields
	ts     *TempSlice // tables for the current slice zSlice
	tsPrev *TempSlice // tables for slice zSlice−1 (z-face evaluations)
	zSlice int
	// shortcut enables the solid-region anti-trapping skip and the
	// liquid-bulk rows (see muSweepFourCell).
	shortcut bool
	invDx    float64
	invDt    float64
	// dInvTwoA[k][a] = D_a/(2A_k,a), the precomputed mobility product.
	dInvTwoA [NR][NP]float64
}

// faceTables returns the temperature tables for a face whose low cell sits
// at local z. A z-face between slices z−1 and z is always evaluated with the
// lower slice's tables so that buffered and freshly computed staggered
// values agree bitwise.
func (st *muFaceState) faceTables(z int) *TempSlice {
	if z < st.zSlice {
		return st.tsPrev
	}
	return st.ts
}

// diffFlux computes the diffusive flux M(φ,T)∇µ·n at the face between cell
// (x,y,z) and its +axis neighbor.
func (st *muFaceState) diffFlux(x, y, z, axis int, out *[NR]float64) {
	phiS := st.f.PhiSrc
	muS := st.f.MuSrc
	ox, oy, oz := axisOffsets(axis)

	var phiF, hf [NP]float64
	for a := 0; a < NP; a++ {
		phiF[a] = 0.5 * (phiS.At(a, x, y, z) + phiS.At(a, x+ox, y+oy, z+oz))
	}
	core.Interp(&phiF, &hf)

	for k := 0; k < NR; k++ {
		m := 0.0
		for a := 0; a < NP; a++ {
			m += hf[a] * st.dInvTwoA[k][a]
		}
		dmu := (muS.At(k, x+ox, y+oy, z+oz) - muS.At(k, x, y, z)) * st.invDx
		out[k] = m * dmu
	}
}

// jatFlux computes the anti-trapping flux J_at·n at the face between cell
// (x,y,z) and its +axis neighbor (Eq. 4). The early-exit guards on φ_ℓ and
// ∇φ_ℓ are the checks §3.3 describes.
func (st *muFaceState) jatFlux(x, y, z, axis int, out *[NR]float64) {
	out[0], out[1] = 0, 0
	p := st.ctx.P
	if p.AT == 0 {
		return
	}
	phiS, phiD := st.f.PhiSrc, st.f.PhiDst
	muS := st.f.MuSrc
	ox, oy, oz := axisOffsets(axis)

	var phiF, hf [NP]float64
	for a := 0; a < NP; a++ {
		phiF[a] = 0.5 * (phiS.At(a, x, y, z) + phiS.At(a, x+ox, y+oy, z+oz))
	}
	// First check: no liquid at the face ⇒ h_ℓ = 0 ⇒ J_at = 0.
	if phiF[LQ] <= tolPhiProd {
		return
	}
	core.Interp(&phiF, &hf)
	if hf[LQ] <= 0 {
		return
	}

	// Face gradients are evaluated lazily per phase: only the liquid and
	// the solids actually present at the face.
	var gl [3]float64
	faceGradPhiOne(phiS, x, y, z, axis, LQ, st.invDx, &gl)
	n2l := gl[0]*gl[0] + gl[1]*gl[1] + gl[2]*gl[2]
	// Second check: vanishing liquid gradient ⇒ skip.
	if n2l < tolGrad2 {
		return
	}
	invNl := simd.FastRSqrt2(n2l)

	var muF [NR]float64
	for k := 0; k < NR; k++ {
		muF[k] = 0.5 * (muS.At(k, x, y, z) + muS.At(k, x+ox, y+oy, z+oz))
	}
	ft := st.faceTables(z)
	cl := ft.Conc(LQ, &muF)

	pref0 := core.ATPrefactor * p.Eps * p.AT * hf[LQ]
	for a := 0; a < NP-1; a++ {
		if phiF[a] <= tolPhiProd {
			continue
		}
		var ga [3]float64
		faceGradPhiOne(phiS, x, y, z, axis, a, st.invDx, &ga)
		n2a := ga[0]*ga[0] + ga[1]*ga[1] + ga[2]*ga[2]
		if n2a < tolGrad2 {
			continue
		}
		invNa := simd.FastRSqrt2(n2a)
		ndot := (ga[0]*gl[0] + ga[1]*gl[1] + ga[2]*gl[2]) * invNa * invNl

		dphidt := 0.5 * ((phiD.At(a, x, y, z) - phiS.At(a, x, y, z)) +
			(phiD.At(a, x+ox, y+oy, z+oz) - phiS.At(a, x+ox, y+oy, z+oz))) * st.invDt

		ca := ft.Conc(a, &muF)

		pref := pref0 * core.GAT(phiF[a]) * simd.FastRSqrt2(phiF[a]*phiF[LQ]) * dphidt * ndot
		nAxis := ga[axis] * invNa
		for k := 0; k < NR; k++ {
			out[k] += pref * (cl[k] - ca[k]) * nAxis
		}
	}
}

// totalFaceFlux combines the diffusive and anti-trapping contributions:
// G = M∇µ − J_at.
func (st *muFaceState) totalFaceFlux(x, y, z, axis int, skipJat bool, out *[NR]float64) {
	st.diffFlux(x, y, z, axis, out)
	if !skipJat {
		var j [NR]float64
		st.jatFlux(x, y, z, axis, &j)
		for k := 0; k < NR; k++ {
			out[k] -= j[k]
		}
	}
}

// muCellUpdate performs the full per-cell µ update of one cell that is not
// part of a four-cell group. Its low x face is always computed: groups do
// not maintain an x staggered buffer.
func muCellUpdate(st *muFaceState, sc *Scratch, x, y, z int, dTdt float64) {
	p := st.ctx.P
	phiS, phiD := st.f.PhiSrc, st.f.PhiDst
	muS, muD := st.f.MuSrc, st.f.MuDst
	ts := st.ts

	var phiC, phiDC, hSrc, hDst [NP]float64
	var muC, flux, fluxLo [NR]float64

	skipJat := st.shortcut && !regionHasLiquid(phiS, x, y, z)

	// Flux divergence over the six staggered faces.
	var div [NR]float64
	for axis := 0; axis < 3; axis++ {
		st.totalFaceFlux(x, y, z, axis, skipJat, &flux)
		if axis == 0 || !loadMuBuffer(sc, axis, x, y, &fluxLo) {
			lx, ly, lz := x, y, z
			switch axis {
			case 0:
				lx--
			case 1:
				ly--
			default:
				lz--
			}
			st.totalFaceFlux(lx, ly, lz, axis, skipJat, &fluxLo)
		}
		for k := 0; k < NR; k++ {
			div[k] += (flux[k] - fluxLo[k]) * st.invDx
		}
		if axis != 0 {
			storeMuBuffer(sc, axis, x, y, &flux)
		}
	}

	loadPhi(phiS, x, y, z, &phiC)
	core.Interp(&phiC, &hSrc)
	loadMu(muS, x, y, z, &muC)

	// Susceptibility χ = Σ_α h_α/(2A_α).
	var chi [NR]float64
	for k := 0; k < NR; k++ {
		s := 0.0
		for a := 0; a < NP; a++ {
			s += hSrc[a] * ts.InvTwoA[k][a]
		}
		chi[k] = s
	}

	// Source terms: −Σ_α c_α ∂h_α/∂t − (∂c/∂T)(∂T/∂t).
	loadPhi(phiD, x, y, z, &phiDC)
	core.Interp(&phiDC, &hDst)
	var src [NR]float64
	for a := 0; a < NP; a++ {
		dh := (hDst[a] - hSrc[a]) * st.invDt
		if dh == 0 {
			continue
		}
		ca := ts.Conc(a, &muC)
		for k := 0; k < NR; k++ {
			src[k] -= ca[k] * dh
		}
	}
	for k := 0; k < NR; k++ {
		dcdT := 0.0
		for a := 0; a < NP; a++ {
			dcdT += hSrc[a] * ts.DC0dT[k][a]
		}
		src[k] -= dcdT * dTdt
	}

	for k := 0; k < NR; k++ {
		muD.Set(k, x, y, z, muC[k]+p.Dt*(src[k]+div[k])/chi[k])
	}
}

// Liquid-bulk rows (shortcut). A row (y, z) is bulk when its whole
// D3C19 neighbourhood — φsrc rows (y−1..y+1) × (z−1..z+1) over x ∈ [−1, nx]
// and the φdst row itself (the ∂h/∂t source) — is exactly the liquid vertex
// (0,0,0,1). There every face interpolation is h = (0,0,0,1), so the
// mobility sum 0 + 0·d₀ + 0·d₁ + 0·d₂ + 1·d_ℓ is d_ℓ, the anti-trapping flux
// returns +0 at its liquid-gradient guard, ∂h/∂t = 0, χ = 1/(2A_ℓ) and the
// source is 0 − (∂c_ℓ/∂T)·∂T/∂t: what remains is a 7-point diffusion that,
// kept in the general path's operation order, is bitwise the same update.
// The kernels' fields are SoA (NewFields), so a row of one component is
// contiguous in x.

// liquidRow reports whether every cell (x, y, z), x ∈ [x0, x1), of the φ
// field is exactly (0,0,0,1). Components compare with ==, so a −0 solid
// fraction counts as 0 (it interpolates to the same weights) and a solid
// at the smallest subnormal does not. A non-liquid row fails on its first
// cell.
func liquidRow(f *grid.Field, y, z, x0, x1 int) bool {
	n := x1 - x0
	s0 := f.Data[f.Idx(0, x0, y, z):][:n]
	s1 := f.Data[f.Idx(1, x0, y, z):][:n]
	s2 := f.Data[f.Idx(2, x0, y, z):][:n]
	l := f.Data[f.Idx(LQ, x0, y, z):][:n]
	for x := range l {
		if l[x] != 1 || s0[x] != 0 || s1[x] != 0 || s2[x] != 0 {
			return false
		}
	}
	return true
}

// slideLiquidRows advances the liquid-row window to slice z — classifying
// all three slices at a sweep's first slice, else only z+1 — and ANDs the
// window into liqCol, so each φsrc row is scanned once per slice, not once
// per neighbouring row.
func (sc *Scratch) slideLiquidRows(phiS *grid.Field, z int, first bool) {
	w := &sc.liqWin
	lo := 2
	if first {
		lo = 0
	} else {
		w[0], w[1], w[2] = w[1], w[2], w[0]
	}
	for i := lo; i < 3; i++ {
		for j := 0; j < phiS.NY+2; j++ {
			w[i][j] = liquidRow(phiS, j-1, z-1+i, -1, phiS.NX+1)
		}
	}
	for j := 0; j < phiS.NY+2; j++ {
		sc.liqCol[j] = w[0][j] && w[1][j] && w[2][j]
	}
}

// liquidBulkRow reports whether row (y, z) of the slice the window was
// last slid to may take the liquid-bulk path.
func (sc *Scratch) liquidBulkRow(phiD *grid.Field, y, z int) bool {
	c := sc.liqCol[y : y+3]
	return c[0] && c[1] && c[2] && liquidRow(phiD, y, z, 0, phiD.NX)
}

// muLiquidRow updates the liquid-bulk row (y, z): each face flux is
// d_ℓ·((µ_hi−µ_lo)/dx), the divergence accumulates from +0 in x, y, z order,
// and the update is ((src+div)·Δt)/χ + µ — the operation order of
// muFourCellGroup and muCellUpdate. The y and z high-face fluxes go to the
// staggered buffers as the general path stores them, so a following
// interface row or slice reads the same low faces.
func muLiquidRow(st *muFaceState, sc *Scratch, y, z int, dTdt float64) {
	muS, muD := st.f.MuSrc, st.f.MuDst
	nx := muS.NX
	invDx, dt := st.invDx, st.ctx.P.Dt
	for k := 0; k < NR; k++ {
		d := st.dInvTwoA[k][LQ]
		chi := st.ts.InvTwoA[k][LQ]
		src := 0 - st.ts.DC0dT[k][LQ]*dTdt
		c := muS.Data[muS.Idx(k, -1, y, z):][:nx+2] // x = −1 .. nx
		s := muS.Data[muS.Idx(k, 0, y-1, z):][:nx]
		n := muS.Data[muS.Idx(k, 0, y+1, z):][:nx]
		b := muS.Data[muS.Idx(k, 0, y, z-1):][:nx]
		t := muS.Data[muS.Idx(k, 0, y, z+1):][:nx]
		out := muD.Data[muD.Idx(k, 0, y, z):][:nx]
		lo := d * ((c[1] - c[0]) * invDx)
		for x := range out {
			mu := c[x+1]
			hi := d * ((c[x+2] - mu) * invDx)
			div := 0.0
			div += (hi - lo) * invDx
			lo = hi

			yi := x*NR + k
			yHi := d * ((n[x] - mu) * invDx)
			yLo := sc.muY[yi]
			if y == 0 {
				yLo = d * ((mu - s[x]) * invDx)
			}
			div += (yHi - yLo) * invDx
			sc.muY[yi] = yHi

			zi := (y*sc.nx+x)*NR + k
			zHi := d * ((t[x] - mu) * invDx)
			zLo := sc.muZ[zi]
			if !sc.zValidMu {
				zLo = d * ((mu - b[x]) * invDx)
			}
			div += (zHi - zLo) * invDx
			sc.muZ[zi] = zHi

			out[x] = ((src+div)*dt)/chi + mu
		}
	}
}

// Staggered buffer plumbing for the µ-kernel's y (axis 1) and z (axis 2)
// faces.

func loadMuBuffer(sc *Scratch, axis, x, y int, out *[NR]float64) bool {
	switch axis {
	case 1:
		if y == 0 {
			return false
		}
		copy(out[:], sc.muY[x*NR:x*NR+NR])
	default:
		if !sc.zValidMu {
			return false
		}
		base := (y*sc.nx + x) * NR
		copy(out[:], sc.muZ[base:base+NR])
	}
	return true
}

func storeMuBuffer(sc *Scratch, axis, x, y int, flux *[NR]float64) {
	switch axis {
	case 1:
		copy(sc.muY[x*NR:x*NR+NR], flux[:])
	default:
		base := (y*sc.nx + x) * NR
		copy(sc.muZ[base:base+NR], flux[:])
	}
}
