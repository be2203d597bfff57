package comm

import (
	"sync"
	"testing"

	"repro/internal/grid"
)

// globalValue gives a unique deterministic value for global cell (c,x,y,z)
// with wrapping applied per periodic axis.
func globalValue(c, x, y, z, nx, ny, nz int, periodic [3]bool) float64 {
	wrap := func(v, n int, per bool) (int, bool) {
		if v < 0 {
			if !per {
				return 0, false
			}
			return v + n, true
		}
		if v >= n {
			if !per {
				return 0, false
			}
			return v - n, true
		}
		return v, true
	}
	var ok bool
	if x, ok = wrap(x, nx, periodic[0]); !ok {
		return -1
	}
	if y, ok = wrap(y, ny, periodic[1]); !ok {
		return -1
	}
	if z, ok = wrap(z, nz, periodic[2]); !ok {
		return -1
	}
	return float64(c*1000000 + z*10000 + y*100 + x)
}

// runExchange decomposes a domain, fills each block with the global pattern,
// exchanges ghosts on all ranks concurrently, and verifies every ghost cell
// against the wrapped global pattern.
func runExchange(t *testing.T, px, py, pz, bx, by, bz, ncomp int, periodic [3]bool) {
	t.Helper()
	bg, err := grid.NewBlockGrid(px, py, pz, bx, by, bz, periodic)
	if err != nil {
		t.Fatal(err)
	}
	nx, ny, nz := bg.GlobalCells()
	w := NewWorld(bg)

	fields := make([]*grid.Field, bg.NumBlocks())
	for r := range fields {
		f := grid.NewField(bx, by, bz, ncomp, 1, grid.SoA)
		ox, oy, oz := bg.Origin(r)
		f.Interior(func(x, y, z int) {
			for c := 0; c < ncomp; c++ {
				f.Set(c, x, y, z, globalValue(c, ox+x, oy+y, oz+z, nx, ny, nz, periodic))
			}
		})
		fields[r] = f
	}

	domain := grid.AllPeriodic()
	for ax := 0; ax < 3; ax++ {
		if !periodic[ax] {
			domain[grid.Face(2*ax)] = grid.BC{Kind: grid.BCNeumann}
			domain[grid.Face(2*ax+1)] = grid.BC{Kind: grid.BCNeumann}
		}
	}

	var wg sync.WaitGroup
	for r := 0; r < bg.NumBlocks(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w.ExchangeGhosts(r, fields[r], TagPhi, bg.BlockBCs(r, domain))
		}(r)
	}
	wg.Wait()

	for r := 0; r < bg.NumBlocks(); r++ {
		f := fields[r]
		ox, oy, oz := bg.Origin(r)
		for c := 0; c < ncomp; c++ {
			for z := -1; z <= bz; z++ {
				for y := -1; y <= by; y++ {
					for x := -1; x <= bx; x++ {
						want := globalValue(c, ox+x, oy+y, oz+z, nx, ny, nz, periodic)
						if want < 0 {
							continue // physical Neumann boundary; pattern undefined
						}
						if got := f.At(c, x, y, z); got != want {
							t.Fatalf("rank %d cell c=%d (%d,%d,%d): got %v want %v",
								r, c, x, y, z, got, want)
						}
					}
				}
			}
		}
	}
}

func TestExchangeFullyPeriodic(t *testing.T) {
	runExchange(t, 2, 2, 2, 4, 4, 4, 2, [3]bool{true, true, true})
}

func TestExchangeMixedBoundaries(t *testing.T) {
	runExchange(t, 2, 2, 2, 4, 3, 5, 1, [3]bool{true, true, false})
}

func TestExchangeSingleBlockPeriodic(t *testing.T) {
	runExchange(t, 1, 1, 1, 5, 5, 5, 3, [3]bool{true, true, true})
}

func TestExchangeAnisotropicDecomposition(t *testing.T) {
	runExchange(t, 4, 1, 2, 3, 8, 4, 2, [3]bool{true, true, false})
}

func TestExchangeTwoBlocksPeriodicAxis(t *testing.T) {
	// Two blocks on a periodic axis: each rank sends two messages to the
	// same neighbor, arriving at different faces.
	runExchange(t, 2, 1, 1, 4, 4, 4, 1, [3]bool{true, true, true})
}

func TestStatsAccumulate(t *testing.T) {
	bg, _ := grid.NewBlockGrid(2, 1, 1, 4, 4, 4, [3]bool{true, false, false})
	w := NewWorld(bg)
	fields := []*grid.Field{
		grid.NewField(4, 4, 4, 1, 1, grid.SoA),
		grid.NewField(4, 4, 4, 1, 1, grid.SoA),
	}
	domain := grid.AllNeumann()
	domain[grid.XMin] = grid.BC{Kind: grid.BCPeriodic}
	domain[grid.XMax] = grid.BC{Kind: grid.BCPeriodic}
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w.ExchangeGhosts(r, fields[r], TagPhi, bg.BlockBCs(r, domain))
		}(r)
	}
	wg.Wait()
	s := w.RankTagStats(0, TagPhi)
	if s.Messages != 2 {
		t.Errorf("rank 0 sent %d messages, want 2", s.Messages)
	}
	// Each x-face message carries 1 comp * 1 ghost * 4*4 cells = 16 values.
	if s.Bytes != 2*16*8 {
		t.Errorf("rank 0 sent %d bytes, want %d", s.Bytes, 2*16*8)
	}
	w.AddWait(0, TagMu, 5)
	if got := w.RankTagStats(0, TagMu).Wait; got != 5 {
		t.Errorf("AddWait charged %v to the µ tag, want 5ns", got)
	}
	w.ResetStats()
	if w.RankTagStats(0, TagPhi).Messages != 0 || w.RankTagStats(0, TagMu).Wait != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestTagString(t *testing.T) {
	if TagPhi.String() != "phi" || TagMu.String() != "mu" || Tag(2).String() != "Tag(2)" {
		t.Error("tag names wrong")
	}
}

func TestStatsTotal(t *testing.T) {
	s := Stats{Pack: 1, Unpack: 2, Transfer: 3, Wait: 4}
	if s.Total() != 10 {
		t.Errorf("Total = %v", s.Total())
	}
	var acc Stats
	acc.Add(s)
	acc.Add(s)
	if acc.Pack != 2 || acc.Wait != 8 {
		t.Error("Add wrong")
	}
}
