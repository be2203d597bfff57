package grid

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewFieldShape(t *testing.T) {
	f := NewField(4, 5, 6, 3, 1, SoA)
	if f.NumInterior() != 120 {
		t.Errorf("NumInterior = %d, want 120", f.NumInterior())
	}
	if len(f.Data) != (4+2)*(5+2)*(6+2)*3 {
		t.Errorf("data len = %d", len(f.Data))
	}
}

func TestNewFieldPanicsOnBadArgs(t *testing.T) {
	for name, mk := range map[string]func(){
		"zero extent": func() { NewField(0, 1, 1, 1, 1, SoA) },
		"layout":      func() { NewField(1, 1, 1, 1, 1, SoA+1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			mk()
		}()
	}
}

func TestIdxDistinct(t *testing.T) {
	f := NewField(3, 4, 5, 2, 1, SoA)
	seen := make(map[int]bool)
	for c := 0; c < f.NComp; c++ {
		for z := -1; z < f.NZ+1; z++ {
			for y := -1; y < f.NY+1; y++ {
				for x := -1; x < f.NX+1; x++ {
					i := f.Idx(c, x, y, z)
					if i < 0 || i >= len(f.Data) {
						t.Fatalf("idx out of range: %d", i)
					}
					if seen[i] {
						t.Fatalf("duplicate index %d at c=%d (%d,%d,%d)", i, c, x, y, z)
					}
					seen[i] = true
				}
			}
		}
	}
	if len(seen) != len(f.Data) {
		t.Errorf("covered %d of %d slots", len(seen), len(f.Data))
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	f := NewField(3, 3, 3, 4, 1, SoA)
	f.Set(2, 1, 0, 2, 7.5)
	if got := f.At(2, 1, 0, 2); got != 7.5 {
		t.Errorf("At = %v", got)
	}
}

// Property: for every (c,x,y,z), ghosts included, element x+G of Row(c,y,z)
// aliases Data[Idx(c,x,y,z)], and the row's capacity stops at the row end.
func TestRowAliasesIdx(t *testing.T) {
	check := func(nx, ny, nz, nc, ng uint8) bool {
		f := NewField(int(nx%5)+1, int(ny%4)+1, int(nz%4)+1, int(nc%3)+1, int(ng%3), SoA)
		g := f.G
		for i := range f.Data {
			f.Data[i] = float64(i)
		}
		for c := 0; c < f.NComp; c++ {
			for z := -g; z < f.NZ+g; z++ {
				for y := -g; y < f.NY+g; y++ {
					row := f.Row(c, y, z)
					if len(row) != f.NX+2*g || cap(row) != len(row) {
						return false
					}
					for x := -g; x < f.NX+g; x++ {
						i := f.Idx(c, x, y, z)
						if row[x+g] != float64(i) {
							return false
						}
						row[x+g] = -1 // a write through the row lands in Data
						if f.Data[i] != -1 {
							return false
						}
						f.Data[i] = float64(i)
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	f := NewField(3, 2, 2, 2, 1, SoA)
	defer func() {
		if recover() == nil {
			t.Error("reslicing a row past its end did not panic")
		}
	}()
	row := f.Row(0, 0, 0)
	_ = row[:len(row)+1]
}

func TestFillComp(t *testing.T) {
	f := NewField(3, 3, 3, 2, 1, SoA)
	f.FillComp(1, 9)
	if f.At(0, 0, 0, 0) != 0 {
		t.Error("comp 0 contaminated")
	}
	if f.At(1, 2, 2, 2) != 9 || f.At(1, -1, -1, -1) != 9 {
		t.Error("comp 1 not filled")
	}
}

func TestSwap(t *testing.T) {
	a := NewField(2, 2, 2, 1, 1, SoA)
	b := NewField(2, 2, 2, 1, 1, SoA)
	a.Fill(1)
	b.Fill(2)
	a.Swap(b)
	if a.At(0, 0, 0, 0) != 2 || b.At(0, 0, 0, 0) != 1 {
		t.Error("Swap did not exchange storage")
	}
}

func TestSwapMismatchPanics(t *testing.T) {
	a := NewField(2, 2, 2, 1, 1, SoA)
	b := NewField(2, 2, 3, 1, 1, SoA)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on shape mismatch")
		}
	}()
	a.Swap(b)
}

func TestCloneIndependent(t *testing.T) {
	a := NewField(2, 2, 2, 2, 1, SoA)
	a.Set(0, 1, 1, 1, 5)
	b := a.Clone()
	b.Set(0, 1, 1, 1, 9)
	if a.At(0, 1, 1, 1) != 5 {
		t.Error("Clone shares storage")
	}
}

func TestInteriorVisitsAllOnce(t *testing.T) {
	f := NewField(3, 4, 5, 1, 1, SoA)
	count := 0
	f.Interior(func(x, y, z int) {
		count++
		f.Set(0, x, y, z, f.At(0, x, y, z)+1)
	})
	if count != 60 {
		t.Errorf("visited %d cells, want 60", count)
	}
	for z := 0; z < f.NZ; z++ {
		for y := 0; y < f.NY; y++ {
			for x := 0; x < f.NX; x++ {
				if f.At(0, x, y, z) != 1 {
					t.Fatalf("cell (%d,%d,%d) visited %v times", x, y, z, f.At(0, x, y, z))
				}
			}
		}
	}
}

func TestInteriorEqual(t *testing.T) {
	a := NewField(3, 3, 3, 2, 1, SoA)
	b := NewField(3, 3, 3, 2, 1, SoA)
	a.Set(1, 2, 2, 2, 1.0)
	b.Set(1, 2, 2, 2, 1.0+1e-12)
	if ok, _ := a.InteriorEqual(b, 1e-10); !ok {
		t.Error("fields should be equal within tolerance")
	}
	b.Set(0, 0, 0, 0, 0.5)
	if ok, maxd := a.InteriorEqual(b, 1e-10); ok || maxd != 0.5 {
		t.Errorf("expected inequality with maxd 0.5, got ok=%v maxd=%v", ok, maxd)
	}
}

func TestHasNaN(t *testing.T) {
	f := NewField(2, 2, 2, 1, 1, SoA)
	if f.HasNaN() {
		t.Error("zero field reported NaN")
	}
	f.Set(0, 1, 1, 1, math.NaN())
	if !f.HasNaN() {
		t.Error("NaN not detected")
	}
}

func TestShiftZDown(t *testing.T) {
	f := NewField(2, 2, 4, 2, 1, SoA)
	for z := 0; z < 4; z++ {
		for y := 0; y < 2; y++ {
			for x := 0; x < 2; x++ {
				f.Set(0, x, y, z, float64(z))
				f.Set(1, x, y, z, float64(10+z))
			}
		}
	}
	f.ShiftZDown(2, []float64{-1, -2})
	for z := 0; z < 2; z++ {
		if f.At(0, 0, 0, z) != float64(z+2) || f.At(1, 0, 0, z) != float64(12+z) {
			t.Errorf("z=%d shifted wrong: %v %v", z, f.At(0, 0, 0, z), f.At(1, 0, 0, z))
		}
	}
	for z := 2; z < 4; z++ {
		if f.At(0, 0, 0, z) != -1 || f.At(1, 0, 0, z) != -2 {
			t.Errorf("z=%d fill wrong: %v %v", z, f.At(0, 0, 0, z), f.At(1, 0, 0, z))
		}
	}
}

func TestShiftZDownFullAndZero(t *testing.T) {
	f := NewField(2, 2, 3, 1, 1, SoA)
	f.Fill(5)
	f.ShiftZDown(0, []float64{0})
	if f.At(0, 0, 0, 0) != 5 {
		t.Error("shift by 0 modified field")
	}
	f.ShiftZDown(10, []float64{7}) // clamped to NZ
	f.Interior(func(x, y, z int) {
		if f.At(0, x, y, z) != 7 {
			t.Fatalf("full shift left %v at (%d,%d,%d)", f.At(0, x, y, z), x, y, z)
		}
	})
}

// Property: Idx is a bijection between (c,x,y,z) and flat indices for random
// small shapes.
func TestIdxBijectionProperty(t *testing.T) {
	f := func(nx, ny, nz, nc uint8) bool {
		x := int(nx%4) + 1
		y := int(ny%4) + 1
		z := int(nz%4) + 1
		c := int(nc%3) + 1
		fl := NewField(x, y, z, c, 1, SoA)
		seen := make(map[int]bool, len(fl.Data))
		for cc := 0; cc < c; cc++ {
			for zz := -1; zz <= z; zz++ {
				for yy := -1; yy <= y; yy++ {
					for xx := -1; xx <= x; xx++ {
						i := fl.Idx(cc, xx, yy, zz)
						if seen[i] {
							return false
						}
						seen[i] = true
					}
				}
			}
		}
		return len(seen) == len(fl.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
