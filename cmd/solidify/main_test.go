package main

import (
	"slices"
	"testing"
)

func TestPlan(t *testing.T) {
	for _, c := range []struct {
		name                        string
		start, steps, report, every int
		wantLines, wantMeshes       []int
	}{
		{"no meshes", 0, 250, 100, 0, []int{100, 200, 250}, nil},
		{"mesh cadence off the report grid", 0, 450, 100, 150,
			[]int{100, 200, 300, 400, 450}, []int{150, 300, 450}},
		{"end on both grids writes once", 0, 300, 100, 150,
			[]int{100, 200, 300}, []int{150, 300}},
		{"partial last interval", 0, 70, 35, 25, []int{35, 70}, []int{25, 50, 70}},
		{"resumed run keeps absolute mesh steps", 70, 70, 35, 25,
			[]int{105, 140}, []int{75, 100, 125, 140}},
		{"resumed on a multiple writes no start mesh", 100, 50, 25, 50,
			[]int{125, 150}, []int{150}},
		{"mesh every step", 3, 3, 2, 1, []int{5, 6}, []int{4, 5, 6}},
		{"report off", 0, 10, 0, 4, []int{10}, []int{4, 8, 10}},
		{"no steps still meshes the current state", 40, 0, 100, 25, nil, []int{40}},
		{"no steps, no meshes", 40, 0, 100, 0, nil, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			var lines, meshes []int
			at := c.start
			for _, st := range plan(c.start, c.steps, c.report, c.every) {
				if st.step < at || st.step > c.start+c.steps {
					t.Fatalf("stop at %d after %d (run %d..%d)", st.step, at, c.start, c.start+c.steps)
				}
				if !st.line && !st.mesh {
					t.Errorf("stop at %d has nothing to do", st.step)
				}
				at = st.step
				if st.line {
					lines = append(lines, st.step)
				}
				if st.mesh {
					meshes = append(meshes, st.step)
				}
			}
			if !slices.Equal(lines, c.wantLines) {
				t.Errorf("progress lines at %v, want %v", lines, c.wantLines)
			}
			if !slices.Equal(meshes, c.wantMeshes) {
				t.Errorf("meshes at %v, want %v", meshes, c.wantMeshes)
			}
		})
	}
}
