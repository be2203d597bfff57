package comm

import (
	"sync"
	"testing"

	"repro/internal/grid"
)

// closeRaceWorld builds a 2×1×1 periodic-x world with one field per rank —
// the smallest decomposition whose exchanges actually cross ranks.
func closeRaceWorld(t *testing.T) (*World, []*grid.Field, []grid.BoundarySet) {
	t.Helper()
	bg, err := grid.NewBlockGrid(2, 1, 1, 6, 6, 6, [3]bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(bg)
	fields := make([]*grid.Field, bg.NumBlocks())
	bcs := make([]grid.BoundarySet, bg.NumBlocks())
	domain := grid.AllPeriodic()
	domain[grid.ZMin] = grid.BC{Kind: grid.BCNeumann}
	domain[grid.ZMax] = grid.BC{Kind: grid.BCNeumann}
	for r := range fields {
		fields[r] = grid.NewField(6, 6, 6, 2, 1, grid.SoA)
		bcs[r] = bg.BlockBCs(r, domain)
	}
	return w, fields, bcs
}

// Close must be idempotent: repeated and concurrent calls are no-ops after
// the first.
func TestCloseIdempotent(t *testing.T) {
	w, fields, bcs := closeRaceWorld(t)
	// Exercise the transport once before closing it.
	var wg sync.WaitGroup
	for r := range fields {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w.ExchangeGhosts(r, fields[r], TagPhi, bcs[r])
		}(r)
	}
	wg.Wait()

	w.Close()
	w.Close() // second sequential call must not panic
	var cg sync.WaitGroup
	for i := 0; i < 4; i++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			w.Close()
		}()
	}
	cg.Wait()
}
