package phasefield

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/mesh"
)

// The interface-mesh output path is a deterministic function of φ: the same
// field extracts and simplifies to the same STL bytes on every run, at any
// worker count. The hash of one such output is pinned; regenerate it after
// an intentional change to extraction, simplification or the STL writer
// with
//
//	go test -run TestInterfaceSTLReproducible -update .

const stlHashPath = "testdata/interface_stl.sha256"

// stlTargetTris is the per-phase triangle budget of the pinned output.
const stlTargetTris = 300

// frontMeshes runs the fixture front at the given worker count and returns
// its extracted (unsimplified) interface meshes.
func frontMeshes(t *testing.T, parallelism int) []*mesh.Mesh {
	t.Helper()
	cfg := DefaultConfig(16, 16, 24)
	cfg.Seed = 1
	cfg.Parallelism = parallelism
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.InitFront(); err != nil {
		t.Fatal(err)
	}
	sim.Run(6)
	return sim.ExtractInterfaces()
}

// simplifiedSTL simplifies a fresh copy of every mesh to stlTargetTris and
// returns their STL encodings, concatenated.
func simplifiedSTL(t *testing.T, meshes []*mesh.Mesh) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, src := range meshes {
		m := &mesh.Mesh{Verts: slices.Clone(src.Verts), Tris: slices.Clone(src.Tris)}
		mesh.Simplify(m, mesh.SimplifyOptions{TargetTris: stlTargetTris})
		if err := m.WriteSTL(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestInterfaceSTLReproducible(t *testing.T) {
	meshes := frontMeshes(t, 1)
	want := simplifiedSTL(t, meshes)
	if len(want) <= 3*84 {
		t.Fatal("fixture front produced no interface triangles")
	}
	for i := 0; i < 20; i++ {
		if got := simplifiedSTL(t, meshes); !bytes.Equal(got, want) {
			t.Fatalf("repeat %d: simplified STL differs from the first run", i+1)
		}
	}
	if got := simplifiedSTL(t, frontMeshes(t, 2)); !bytes.Equal(got, want) {
		t.Fatal("STL of the front stepped with 2 workers differs from 1 worker")
	}

	sum := fmt.Sprintf("%x", sha256.Sum256(want))
	if *update {
		if err := os.WriteFile(stlHashPath, []byte(sum+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s: %s", stlHashPath, sum)
		return
	}
	// Go fuses multiply-adds on some architectures (arm64, ppc64, s390x),
	// which moves float bits; the pin is of the amd64 bytes.
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned hash is of amd64 output; running on %s", runtime.GOARCH)
	}
	raw, err := os.ReadFile(stlHashPath)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to generate): %v", err)
	}
	if pinned := strings.TrimSpace(string(raw)); sum != pinned {
		t.Errorf("simplified STL hash %s, pinned %s", sum, pinned)
	}
}
