package kernels

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

// The production kernels' output bytes are part of the repo's bitwise
// contract (checkpoints, bench pins, the golden trajectory), but those pins
// sit several layers above the kernels. This test pins them at the kernel
// itself: one φ sweep and one µ sweep of VarShortcut on a seeded, perturbed
// interface block, each cut into two z-slabs with their own Scratch, so
// the slab-start recomputation, the staggered buffers, the bulk and
// liquid-row shortcuts and every anti-trapping guard all run. A change of
// any floating-point operation's order in either kernel changes a hash.

const (
	pinPhiSHA = "02bfd334f0d5487e2884f3f2f4590bcd46d6b8e07cfabd0741566ed03a34f074"
	pinMuSHA  = "3c7dbac7b16d5e660d355a3c3caef36b98a5ebb0e3d4b5f0b508bb8e635037c4"
)

// pinBlock builds the 40×8×8 block of the pin: three solid lamellae under
// liquid, a tanh front at z = 3.5 snapped to the exact solid and liquid
// vertices within 0.01 of them (so the bulk φ cells, the solid-region
// anti-trapping skip and a liquid-bulk µ row all occur), a patch of
// constant solid-0 fraction inside the front, seeded noise on the other
// diffuse cells (projected back onto the simplex), and noisy µ.
func pinBlock(p *core.Params) *Fields {
	const nx, ny, nz, stripe = 40, 8, 8, 13
	f := NewFields(nx, ny, nz)
	rng := rand.New(rand.NewSource(36))
	f.PhiSrc.Interior(func(x, y, z int) {
		l := 0.5 * (1 + math.Tanh((float64(z)-3.5)/(0.25*p.Eps)))
		var phi [NP]float64
		switch {
		case l < 0.01:
			phi[(x/stripe)%3] = 1
		case l > 0.99:
			phi[LQ] = 1
		case x >= stripe && x < 2*stripe && y >= 2 && y < 6:
			// Solid 0 held at 0.2 against moving solid 1 and liquid:
			// zero solid-0 face gradients beside nonzero liquid ones.
			phi = [NP]float64{0.2, 0.8 * (1 - l), 0, 0.8 * l}
		default:
			phi[LQ] = l
			phi[(x/stripe)%3] = 1 - l
			for a := 0; a < NP; a++ {
				phi[a] += 0.05 * (2*rng.Float64() - 1)
			}
			core.ProjectSimplex(&phi)
		}
		storePhi(f.PhiSrc, x, y, z, &phi)
		for k := 0; k < NR; k++ {
			f.MuSrc.Set(k, x, y, z, 0.02*(2*rng.Float64()-1))
		}
	})
	bs := testBCs()
	bs.Apply(f.PhiSrc)
	bs.Apply(f.MuSrc)
	f.PhiDst.CopyFrom(f.PhiSrc)
	f.MuDst.CopyFrom(f.MuSrc)
	return f
}

// interiorSHA hashes the interior of f, component-major, row by row, as
// little-endian float64 bits.
func interiorSHA(f *grid.Field) string {
	h := sha256.New()
	var b [8]byte
	for c := 0; c < f.NComp; c++ {
		for z := 0; z < f.NZ; z++ {
			for y := 0; y < f.NY; y++ {
				for _, v := range f.Row(c, y, z)[f.G : f.G+f.NX] {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestProductionSweepBytesPinned(t *testing.T) {
	p := testParams(8)
	ctx := &Ctx{P: p, Time: 2 * p.Dt}
	f := pinBlock(p)
	nx, ny := f.PhiSrc.NX, f.PhiSrc.NY
	for _, s := range [][2]int{{0, 3}, {3, 8}} {
		PhiSweepRange(ctx, f, NewScratch(nx, ny), s[0], s[1])
	}
	testBCsApply(f.PhiDst)
	for _, s := range [][2]int{{0, 3}, {3, 8}} {
		MuSweepRange(ctx, f, NewScratch(nx, ny), s[0], s[1])
	}
	if got := interiorSHA(f.PhiDst); got != pinPhiSHA {
		t.Errorf("φ sweep bytes changed: sha256 %s, pinned %s", got, pinPhiSHA)
	}
	if got := interiorSHA(f.MuDst); got != pinMuSHA {
		t.Errorf("µ sweep bytes changed: sha256 %s, pinned %s", got, pinMuSHA)
	}
}
