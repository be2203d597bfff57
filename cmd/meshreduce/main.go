// Command meshreduce demonstrates the hierarchical mesh-based data
// reduction pipeline of §3.2 standalone: it extracts per-block isosurface
// meshes from a short production run (one mesh per block, ghost-extended
// and boundary-weighted), coarsens them locally with the quadric-error
// simplifier, reduces them pairwise in log₂(P) stitch-and-coarsen rounds,
// and writes the final surface.
//
// Usage:
//
//	meshreduce -n 48 -blocks 4 -target 5000 -o interface.stl
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/grid"
	"repro/internal/mesh"
)

func main() {
	n := flag.Int("n", 48, "cubic domain edge")
	blocks := flag.Int("blocks", 4, "number of z-slab blocks (power of two)")
	steps := flag.Int("steps", 50, "timesteps before extraction")
	target := flag.Int("target", 5000, "per-round simplification target (triangles)")
	phase := flag.Int("phase", 0, "solid phase to extract")
	out := flag.String("o", "interface.stl", "output STL path")
	flag.Parse()

	if *n%*blocks != 0 {
		fatal(fmt.Errorf("domain edge %d not divisible by %d blocks", *n, *blocks))
	}

	sim, err := phasefield.New(phasefield.DefaultConfig(*n, *n, *n))
	if err != nil {
		fatal(err)
	}
	if err := sim.InitProduction(); err != nil {
		fatal(err)
	}
	sim.Run(*steps)
	phi := sim.GlobalPhi()
	bs := grid.AllNeumann()
	bs.Apply(phi)

	// Split the domain into z-slab "blocks" and extract per block with
	// ghost overlap, as each rank would in a distributed run. The global
	// field's zero-gradient ghost layer supplies the outer ghosts, so every
	// ghost-inclusive row of a block is a row of the global field.
	slab := *n / *blocks
	var meshes []*mesh.Mesh
	totalTris := 0
	for b := 0; b < *blocks; b++ {
		zlo := b * slab
		sub := grid.NewField(*n, *n, slab, 1, 1, grid.SoA)
		for z := -1; z <= slab; z++ {
			for y := -1; y <= *n; y++ {
				copy(sub.Row(0, y, z), phi.Row(*phase, y, zlo+z))
			}
		}
		m := mesh.ExtractPhase(sub, 0, mesh.Vec3{0, 0, float64(zlo)}, true)
		totalTris += m.NumTris()
		meshes = append(meshes, m)
		fmt.Printf("block %d: %d triangles\n", b, m.NumTris())
	}

	reduced, rounds := mesh.Reduce(meshes, mesh.ReduceOptions{TargetTris: *target})
	if len(reduced) != 1 {
		fatal(fmt.Errorf("reduction stopped early with %d meshes", len(reduced)))
	}
	final := reduced[0]
	fmt.Printf("reduced %d -> %d triangles in %d pairwise rounds (log2(%d)=%d)\n",
		totalTris, final.NumTris(), rounds, *blocks, rounds)

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	err = final.WriteSTL(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println("wrote", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "meshreduce:", err)
	os.Exit(1)
}
