package kernels

import (
	"repro/internal/grid"
	"repro/internal/simd"
)

// mu_fourcell.go implements the production µ-kernel sweep. As the paper
// notes, four-cell vectorization is "the only possible" strategy for this
// kernel: one SIMD lane per consecutive x-cell. The local source
// terms, susceptibility and diffusive face fluxes are evaluated lanewise;
// the anti-trapping current — dominated by data-dependent guards — is
// evaluated per staggered face (it can only be skipped when the shortcut
// condition holds for the whole group). The x-direction staggered faces are
// shared between lanes by a register rotate: the low faces of lanes 1–3 are
// the high faces of lanes 0–2.

// muSweepFourCell runs the vectorized µ-kernel over the z-slab [z0,z1).
// shortcut is on in production; off, the sweep is the bitwise reference
// the shortcut tests compare against.
func muSweepFourCell(ctx *Ctx, f *Fields, sc *Scratch, shortcut bool, z0, z1 int) {
	p := ctx.P
	phiS, phiD := f.PhiSrc, f.PhiDst
	muS, muD := f.MuSrc, f.MuDst
	nx, ny := muS.NX, muS.NY
	sc.ensure(nx, ny)

	st := muFaceState{ctx: ctx, f: f, shortcut: shortcut, invDx: 1 / p.Dx, invDt: 1 / p.Dt}
	for a := 0; a < NP; a++ {
		for k := 0; k < NR; k++ {
			st.dInvTwoA[k][a] = p.D[a] / (2 * p.Sys.Phases[a].A[k])
		}
	}

	dTdt := p.Temp.DTdt()
	var ts, tsPrev TempSlice
	st.ts = &ts
	st.tsPrev = &tsPrev

	sc.zValidMu = false
	for z := z0; z < z1; z++ {
		ts.Fill(p, ctx.ZOff+z, ctx.Time)
		tsPrev.Fill(p, ctx.ZOff+z-1, ctx.Time)
		st.zSlice = z
		if shortcut {
			sc.slideLiquidRows(phiS, z, z == z0)
		}
		for y := 0; y < ny; y++ {
			// A pure-liquid row takes the bulk loop as a whole,
			// remainder cells included.
			if shortcut && sc.liquidBulkRow(phiD, y, z) {
				muLiquidRow(&st, sc, y, z, dTdt)
				continue
			}
			x0 := 0
			for ; x0+4 <= nx; x0 += 4 {
				muFourCellGroup(&st, phiS, phiD, muS, muD, sc, x0, y, z, dTdt)
			}
			// Remainder cells (nx mod 4, the whole row when nx < 4)
			// are updated one at a time.
			for x := x0; x < nx; x++ {
				muCellUpdate(&st, sc, x, y, z, dTdt)
			}
		}
		sc.zValidMu = true
	}
}

// muFourCellGroup updates cells (x..x+3, y, z).
func muFourCellGroup(st *muFaceState, phiS, phiD, muS, muD *grid.Field, sc *Scratch,
	x, y, z int, dTdt float64) {

	p := st.ctx.P
	ts := st.ts

	// Group-level shortcut: the anti-trapping machinery is skipped only
	// when no lane's neighborhood carries liquid.
	skipJat := false
	if st.shortcut {
		skipJat = true
		for i := 0; i < 4 && skipJat; i++ {
			if regionHasLiquid(phiS, x+i, y, z) {
				skipJat = false
			}
		}
	}

	// --- Staggered flux divergence -------------------------------------
	var div [NR]simd.Vec4

	// x axis: compute the four high faces; lanes 1..3 of the low faces
	// are a rotate of the high faces, lane 0 is computed explicitly.
	var hiX [NR]simd.Vec4
	for i := 0; i < 4; i++ {
		var fl [NR]float64
		st.totalFaceFlux(x+i, y, z, 0, skipJat, &fl)
		for k := 0; k < NR; k++ {
			hiX[k][i] = fl[k]
		}
	}
	var lo0 [NR]float64
	st.totalFaceFlux(x-1, y, z, 0, skipJat, &lo0)
	for k := 0; k < NR; k++ {
		loX := hiX[k].RotateR()
		loX[0] = lo0[k]
		div[k] = div[k].Add(hiX[k].Sub(loX).Scale(st.invDx))
	}

	// y and z axes: high faces lanewise; low faces from the staggered
	// buffers when available, else computed.
	for axis := 1; axis < 3; axis++ {
		var hi, lo [NR]simd.Vec4
		for i := 0; i < 4; i++ {
			var fl [NR]float64
			st.totalFaceFlux(x+i, y, z, axis, skipJat, &fl)
			for k := 0; k < NR; k++ {
				hi[k][i] = fl[k]
			}
		}
		for i := 0; i < 4; i++ {
			var fl [NR]float64
			if !loadMuBuffer(sc, axis, x+i, y, &fl) {
				lx, ly, lz := x+i, y, z
				if axis == 1 {
					ly--
				} else {
					lz--
				}
				st.totalFaceFlux(lx, ly, lz, axis, skipJat, &fl)
			}
			for k := 0; k < NR; k++ {
				lo[k][i] = fl[k]
			}
		}
		for k := 0; k < NR; k++ {
			div[k] = div[k].Add(hi[k].Sub(lo[k]).Scale(st.invDx))
		}
		for i := 0; i < 4; i++ {
			var fl [NR]float64
			for k := 0; k < NR; k++ {
				fl[k] = hi[k][i]
			}
			storeMuBuffer(sc, axis, x+i, y, &fl)
		}
	}

	// --- Local terms, lanewise ------------------------------------------
	// Interpolation weights of φ(t) and φ(t+Δt) per phase per lane.
	var wS, wD [NP]simd.Vec4
	var sumS, sumD simd.Vec4
	three := simd.Splat(3)
	for a := 0; a < NP; a++ {
		pc := simd.Set(phiS.At(a, x, y, z), phiS.At(a, x+1, y, z), phiS.At(a, x+2, y, z), phiS.At(a, x+3, y, z))
		pd := simd.Set(phiD.At(a, x, y, z), phiD.At(a, x+1, y, z), phiD.At(a, x+2, y, z), phiD.At(a, x+3, y, z))
		wS[a] = pc.Mul(pc).Mul(three.Sub(pc.Scale(2)))
		wD[a] = pd.Mul(pd).Mul(three.Sub(pd.Scale(2)))
		sumS = sumS.Add(wS[a])
		sumD = sumD.Add(wD[a])
	}
	var invS, invD simd.Vec4
	for l := 0; l < 4; l++ {
		if sumS[l] > 0 {
			invS[l] = 1 / sumS[l]
		} else {
			invS[l] = 0
		}
		if sumD[l] > 0 {
			invD[l] = 1 / sumD[l]
		} else {
			invD[l] = 0
		}
	}

	mu0 := simd.Set(muS.At(0, x, y, z), muS.At(0, x+1, y, z), muS.At(0, x+2, y, z), muS.At(0, x+3, y, z))
	mu1 := simd.Set(muS.At(1, x, y, z), muS.At(1, x+1, y, z), muS.At(1, x+2, y, z), muS.At(1, x+3, y, z))
	muV := [NR]simd.Vec4{mu0, mu1}

	var src, chi [NR]simd.Vec4
	for a := 0; a < NP; a++ {
		hS := wS[a].Mul(invS)
		hD := wD[a].Mul(invD)
		dh := hD.Sub(hS).Scale(st.invDt)
		for k := 0; k < NR; k++ {
			// c_α(µ,T) lanewise from the slice tables.
			ca := muV[k].Scale(ts.InvTwoA[k][a]).Add(simd.Splat(ts.C0T[k][a]))
			src[k] = src[k].Sub(ca.Mul(dh))
			chi[k] = chi[k].Add(hS.Scale(ts.InvTwoA[k][a]))
			src[k] = src[k].Sub(hS.Scale(ts.DC0dT[k][a] * dTdt))
		}
	}

	for k := 0; k < NR; k++ {
		upd := src[k].Add(div[k]).Scale(p.Dt).Div(chi[k]).Add(muV[k])
		for i := 0; i < 4; i++ {
			muD.Set(k, x+i, y, z, upd[i])
		}
	}
}
