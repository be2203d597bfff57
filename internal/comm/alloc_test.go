package comm

import (
	"testing"

	"repro/internal/grid"
)

// alloc_test.go guards the zero-allocation property of the halo-exchange
// pack/unpack path: after the first exchange has populated the per-rank
// persistent buffers, further exchanges must not allocate.

func allocTestWorld(t *testing.T) (*World, *grid.Field, *grid.Field, grid.BoundarySet) {
	t.Helper()
	bg, err := grid.NewBlockGrid(2, 1, 1, 8, 6, 10, [3]bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(bg)
	f0 := grid.NewField(8, 6, 10, 4, 1, grid.SoA)
	f1 := grid.NewField(8, 6, 10, 4, 1, grid.SoA)
	for i := range f0.Data {
		f0.Data[i] = float64(i)
		f1.Data[i] = float64(2 * i)
	}
	bcs := bg.BlockBCs(0, grid.DirectionalSolidification([]float64{1, 0, 0, 0}))
	return w, f0, f1, bcs
}

func TestExchangePackPathAllocFree(t *testing.T) {
	w, f0, f1, bcs := allocTestWorld(t)

	// A persistent partner goroutine runs rank 1's side of each exchange,
	// so the measured closure performs one full two-rank halo exchange.
	req := make(chan struct{})
	ack := make(chan struct{})
	defer close(req)
	go func() {
		for range req {
			w.ExchangeGhosts(1, f1, TagPhi, bcs)
			ack <- struct{}{}
		}
	}()
	pair := func() {
		req <- struct{}{}
		w.ExchangeGhosts(0, f0, TagPhi, bcs)
		<-ack
	}

	for i := 0; i < 4; i++ {
		pair() // warm-up: populate the persistent buffer set
	}
	before := w.PackAllocs()
	avg := testing.AllocsPerRun(20, pair)
	if avg != 0 {
		t.Errorf("steady-state halo exchange allocates %.1f objects/run, want 0", avg)
	}
	if got := w.PackAllocs(); got != before {
		t.Errorf("pack buffers allocated in steady state: %d fresh buffers", got-before)
	}
}

func TestPackRegionSoAFastPathMatchesGeneric(t *testing.T) {
	// The row-copy pack must produce the component-major, z/y/x buffer an
	// element-wise At loop produces, and unpack must write back exactly the
	// region pack read, leaving every other cell alone.
	nx, ny, nz := 7, 5, 6
	f := grid.NewField(nx, ny, nz, 3, 1, grid.SoA)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	for face := grid.Face(0); face < grid.NumFaces; face++ {
		pack, unpack := stageRegions(f, face)
		var want []float64
		for c := 0; c < 3; c++ {
			for z := pack.z0; z < pack.z1; z++ {
				for y := pack.y0; y < pack.y1; y++ {
					for x := pack.x0; x < pack.x1; x++ {
						want = append(want, f.At(c, x, y, z))
					}
				}
			}
		}
		buf := packRegion(f, pack, nil)
		if len(buf) != len(want) {
			t.Fatalf("face %v: buffer length %d, want %d", face, len(buf), len(want))
		}
		for j := range want {
			if buf[j] != want[j] {
				t.Fatalf("face %v: row pack differs from the At loop at %d: %g vs %g", face, j, buf[j], want[j])
			}
		}

		// Unpack the packed buffer into the unpack region of a field filled
		// with -1: the region must read back in At-loop order, and every
		// cell outside it must keep -1.
		dst := grid.NewField(nx, ny, nz, 3, 1, grid.SoA)
		dst.Fill(-1)
		unpackRegion(dst, unpack, buf)
		j := 0
		for c := 0; c < 3; c++ {
			for z := -1; z <= nz; z++ {
				for y := -1; y <= ny; y++ {
					for x := -1; x <= nx; x++ {
						in := x >= unpack.x0 && x < unpack.x1 && y >= unpack.y0 && y < unpack.y1 && z >= unpack.z0 && z < unpack.z1
						got := dst.At(c, x, y, z)
						switch {
						case in && got != want[j]:
							t.Fatalf("face %v: unpack (%d,%d,%d,%d) = %g, want %g", face, c, x, y, z, got, want[j])
						case !in && got != -1:
							t.Fatalf("face %v: unpack wrote (%d,%d,%d,%d) outside its region", face, c, x, y, z)
						}
						if in {
							j++
						}
					}
				}
			}
		}
	}
}

func TestPackBufferRecycling(t *testing.T) {
	// Repeated exchanges circulate a bounded buffer set: the allocation
	// count must stop growing after the first few steps.
	w, f0, f1, bcs := allocTestWorld(t)
	step := func() {
		done := make(chan struct{})
		go func() {
			w.ExchangeGhosts(1, f1, TagPhi, bcs)
			w.ExchangeGhosts(1, f1.Clone(), TagMu, bcs)
			close(done)
		}()
		w.ExchangeGhosts(0, f0, TagPhi, bcs)
		w.ExchangeGhosts(0, f0.Clone(), TagMu, bcs)
		<-done
	}
	step()
	step()
	after2 := w.PackAllocs()
	for i := 0; i < 10; i++ {
		step()
	}
	if got := w.PackAllocs(); got != after2 {
		t.Errorf("pack allocations kept growing: %d after warm-up, %d after 10 more steps", after2, got)
	}
}
