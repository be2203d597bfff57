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
// worker count, rank grid or transport. The hash of one such output is
// pinned; regenerate it after an intentional change to extraction,
// simplification or the STL writer with
//
//	go test -run TestInterfaceSTLReproducible -update .

const stlHashPath = "testdata/interface_stl.sha256"

// stlTargetTris is the per-phase triangle budget of the pinned output.
const stlTargetTris = 300

// frontMeshes runs the fixture front on a px×py rank grid with the given
// worker count, in one process (procs 0) or over procs loopback TCP
// processes, and returns the root's extracted (unsimplified) interface
// meshes.
func frontMeshes(t *testing.T, px, py, procs, parallelism int) []*mesh.Mesh {
	t.Helper()
	sims, err := startProcs(procs, func(d *DistConfig) (*Simulation, error) {
		cfg := DefaultConfig(16, 16, 24)
		cfg.Seed = 1
		cfg.PX, cfg.PY = px, py
		cfg.Parallelism = parallelism
		cfg.Distributed = d
		return New(cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeSims(sims)
	meshes := make([][]*mesh.Mesh, len(sims))
	if err := each(sims, func(p int, s *Simulation) error {
		if err := s.InitFront(); err != nil {
			return err
		}
		if err := s.RunSchedule(nil, 6, ScheduleOptions{}); err != nil {
			return err
		}
		meshes[p] = s.ExtractInterfaces()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return meshes[0]
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
	meshes := frontMeshes(t, 1, 1, 0, 1)
	want := simplifiedSTL(t, meshes)
	if len(want) <= 3*84 {
		t.Fatal("fixture front produced no interface triangles")
	}
	for i := 0; i < 20; i++ {
		if got := simplifiedSTL(t, meshes); !bytes.Equal(got, want) {
			t.Fatalf("repeat %d: simplified STL differs from the first run", i+1)
		}
	}
	// The root gathers φ before extracting, so neither the worker count,
	// the rank grid nor the transport may move a byte.
	for _, c := range []struct {
		name               string
		px, py, procs, par int
	}{
		{"1x1, 2 workers", 1, 1, 0, 2},
		{"2x2 in one process", 2, 2, 0, 1},
		{"2x1 over two TCP processes", 2, 1, 2, 1},
	} {
		if got := simplifiedSTL(t, frontMeshes(t, c.px, c.py, c.procs, c.par)); !bytes.Equal(got, want) {
			t.Errorf("STL of the front on %s differs from 1x1 with 1 worker", c.name)
		}
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
