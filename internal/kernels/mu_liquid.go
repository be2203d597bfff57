package kernels

import (
	"repro/internal/grid"
)

// Liquid-bulk rows (shortcut). A row (y, z) is bulk when its whole
// D3C19 neighbourhood — φsrc rows (y−1..y+1) × (z−1..z+1) over x ∈ [−1, nx]
// and the φdst row itself (the ∂h/∂t source) — is exactly the liquid vertex
// (0,0,0,1). There every face interpolation is h = (0,0,0,1), so the
// mobility sum 0 + 0·d₀ + 0·d₁ + 0·d₂ + 1·d_ℓ is d_ℓ, the anti-trapping flux
// returns +0 at its liquid-gradient guard, ∂h/∂t = 0, χ = 1/(2A_ℓ) and the
// source is 0 − (∂c_ℓ/∂T)·∂T/∂t: what remains is a 7-point diffusion that,
// kept in the interface rows' operation order, is bitwise the same update.
// The kernels' fields are SoA (NewFields), so a row of one component is
// contiguous in x.

// liquidRow reports whether every cell (x, y, z), x ∈ [x0, x1), of the φ
// field is exactly (0,0,0,1). Components compare with ==, so a −0 solid
// fraction counts as 0 (it interpolates to the same weights) and a solid
// at the smallest subnormal does not. A non-liquid row fails on its first
// cell.
func liquidRow(f *grid.Field, y, z, x0, x1 int) bool {
	lo, hi := x0+f.G, x1+f.G
	s0 := f.Row(0, y, z)[lo:hi]
	s1 := f.Row(1, y, z)[lo:hi]
	s2 := f.Row(2, y, z)[lo:hi]
	l := f.Row(LQ, y, z)[lo:hi]
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

// liquidBulk updates the liquid-bulk row of nx cells starting at flat
// index base (row y of the current slice): each face flux is
// d_ℓ·((µ_hi−µ_lo)/dx), the divergence accumulates from +0 in x, y, z
// order, and the update is ((src+div)·Δt)/χ + µ — the operation order of
// muSweep.row. The y and z high-face fluxes go to the staggered buffers as
// the interface rows store them, so a following interface row or slice
// reads the same low faces.
func (m *muSweep) liquidBulk(sc *Scratch, base, nx, y int) {
	invDx, dt := m.invDx, m.dt
	for k := 0; k < NR; k++ {
		d := m.dInvTwoA[k][LQ]
		chi := m.ts.InvTwoA[k][LQ]
		src := 0 - m.srcT[k][LQ]
		i := base + k*m.cs
		c := m.muS[i-1:][:nx+2] // x = −1 .. nx
		s := m.muS[i-m.sy:][:nx]
		n := m.muS[i+m.sy:][:nx]
		b := m.muS[i-m.sz:][:nx]
		t := m.muS[i+m.sz:][:nx]
		out := m.muD[i:][:nx]
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
