package solver

import (
	"repro/internal/core"
)

// The moving-window technique (§3.3, Fig. 2): since the evolution in the
// solid is orders of magnitude slower than in the liquid, the domain only
// needs to track the solidification front. When the front climbs past a
// trigger height, all fields are scrolled down in z — solidified material
// leaves through the bottom, fresh melt enters at the top — and the window
// offset is added to the analytic temperature's z coordinate so the frozen
// gradient keeps moving with the lab frame.

// FrontHeight returns the highest global z index (within the window) whose
// slice still contains solid, or -1 for an all-liquid domain. The top-down
// scan consults the activity tracker's per-slice classification when it is
// current: a slept slice is a known pure phase — liquid is skipped without
// touching a cell, solid ends the scan immediately. Only awake (interface)
// slices pay the cell scan, and nothing is allocated, so the per-step
// moving-window trigger check is free in the steady state where the bulk
// of the domain sleeps.
func (s *Sim) FrontHeight() int {
	best := -1
	for _, r := range s.ranks {
		if r.zOff+r.fields.PhiSrc.NZ-1 <= best {
			continue // cannot beat a front already found below this block
		}
		if top := frontTop(r); top >= 0 && r.zOff+top > best {
			best = r.zOff + top
		}
	}
	if s.World.NumProcs() > 1 {
		// Collective: the window-shift decision must agree on every
		// process (small integers, so the float max is exact).
		v := []float64{float64(best)}
		s.World.GlobalMax(v)
		best = int(v[0])
	}
	return best
}

// frontTop returns the highest local slice of rank r containing solid, or
// -1. Slept slices are trusted from the classification (their data is
// unchanged since it was taken); awake slices are scanned cell-wise.
func frontTop(r *rank) int {
	f := r.fields.PhiSrc
	a := &r.act
	for z := f.NZ - 1; z >= 0; z-- {
		if a.valid && a.phiSleep[z] {
			if a.vertex[z+1] != core.Liquid {
				return z // a pure solid slice: the front is at or above here
			}
			continue // pure melt: nothing to scan
		}
		for y := 0; y < f.NY; y++ {
			for x := 0; x < f.NX; x++ {
				solid := 0.0
				for p := 0; p < core.NPhases-1; p++ {
					solid += f.At(p, x, y, z)
				}
				if solid > 0.5 {
					return z
				}
			}
		}
	}
	return -1
}

// maybeShiftWindow checks the front position and scrolls the window when it
// exceeds the trigger fraction of the domain height.
func (s *Sim) maybeShiftWindow() {
	_, _, nz := s.Cfg.BG.GlobalCells()
	trigger := int(s.Cfg.WindowFrontFraction * float64(nz))
	front := s.FrontHeight()
	if front < trigger {
		return
	}
	shift := front - trigger + 1
	s.ShiftWindow(shift)
}

// ShiftWindow scrolls all fields down by `cells` in z, filling the top with
// fresh melt at the eutectic chemical potential, and advances the window
// offset so the temperature field stays in the lab frame.
func (s *Sim) ShiftWindow(cells int) {
	if cells <= 0 {
		return
	}
	liquidFill := make([]float64, core.NPhases)
	liquidFill[core.Liquid] = 1
	muFill := []float64{0, 0}

	s.forAllRanks(func(r *rank) {
		r.fields.PhiSrc.ShiftZDown(cells, liquidFill)
		r.fields.MuSrc.ShiftZDown(cells, muFill)
		// Destination fields are overwritten each sweep; only ∂φ/∂t
		// consumers need consistent φdst, which the next φ-sweep
		// rewrites before the µ-sweep reads it.
		r.fields.PhiDst.ShiftZDown(cells, liquidFill)
		r.fields.MuDst.ShiftZDown(cells, muFill)
	})
	s.windowShift += cells

	// Every slice now holds different material (and a different analytic
	// temperature): the activity map is re-derived next step, and the
	// halo-skip history must not bridge the scroll.
	s.invalidateActivity()

	// Ghost layers are stale after the shift.
	s.refreshGhosts()
}
