package phasefield

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/schedule"
	"repro/internal/solver"
)

// bitwise_matrix_test.go is the whole bitwise contract as one table: a
// seeded generator draws a case along every axis that must not change a
// bit — rank grid, sweep workers and a mid-run budget change, overlap
// mode, activity tracking, telemetry, transport (in-process or loopback
// TCP processes), a production schedule and an interruption — and the
// case's global φ and µ, step, window shift, live BCs and axis topology
// must equal, at tolerance 0, those of its oracle: the same schedule on
// one rank, one worker, OverlapNone, tracking and telemetry off, in
// process. Each case also asserts that every axis it drew engaged, so a
// draw that exercised nothing fails rather than passes.
//
// Replay one generated case (CI draws a fresh one per run and logs it):
//
//	go test -run TestBitwiseMatrix . -args -matrix.seed=N

var matrixSeed = flag.Int64("matrix.seed", 0, "also run the TestBitwiseMatrix case drawn from this seed")

// matrixSeeds is how many generated cases, seeds 1 to matrixSeeds, tier-1
// runs beside the pinned production shapes.
const matrixSeeds = 16

// interruption is how a case leaves and resumes its trajectory at cutAt.
type interruption int

const (
	cutNone    interruption = iota
	cutV3                   // Float32 (V3) file via Checkpoint, then Restore: solidify -restore
	cutF64                  // Float64 WriteCheckpoint bytes into RestoreReader: jobd preemption
	cutReshard              // Float64 file into RestoreResharded onto regrid: solidify -reshard
)

func (c interruption) String() string {
	return [...]string{"none", "v3", "f64-reader", "f64-reshard"}[c]
}

// matrixCase is one draw. The physics block is shared with the oracle;
// every execution axis resets to its oracle value by assigning the zero
// value, except grid and par, whose oracle value is 1.
type matrixCase struct {
	name string // pinned shape, or "" for a generated case
	seed int64

	// Physics: the oracle runs exactly this.
	nx, ny, nz int
	production bool               // Voronoi nuclei, else the planar front
	window     float64            // moving-window trigger fraction, 0 = off
	items      [][]schedule.Event // schedule; a BC flip is one item of four events
	steps      int

	// Execution axes.
	grid      [3]int
	par       int
	budget    int // SetWorkerBudget target after budgetAt steps; 0 = none
	budgetAt  int
	overlap   solver.OverlapMode
	track     bool
	telemetry bool
	procs     int // loopback TCP processes; 0 = in-process
	cut       interruption
	cutAt     int
	regrid    [3]int // cutReshard's target grid
}

func (c matrixCase) String() string {
	cut := c.cut.String()
	if c.cut != cutNone {
		cut += fmt.Sprintf("@%d", c.cutAt)
	}
	if c.cut == cutReshard {
		cut += fmt.Sprintf("→%v", c.regrid)
	}
	var sched []string
	for _, it := range c.items {
		sched = append(sched, fmt.Sprint(it[0]))
	}
	return fmt.Sprintf("%dx%dx%d production=%v window=%.3g steps=%d | grid=%v par=%d budget=%d@%d overlap=%q track=%v telemetry=%v procs=%d cut=%s | schedule %q",
		c.nx, c.ny, c.nz, c.production, c.window, c.steps, c.grid, c.par, c.budget, c.budgetAt,
		c.overlap, c.track, c.telemetry, c.procs, cut, sched)
}

// oracle returns the case with every execution axis at its oracle value.
// A V3 cut stays: float32 rounding is physics, so the oracle takes the same
// round trip at the same step. The lossless cuts are dropped, which also
// proves them lossless.
func (c matrixCase) oracle() matrixCase {
	o := matrixCase{nx: c.nx, ny: c.ny, nz: c.nz, production: c.production, window: c.window,
		items: c.items, steps: c.steps, grid: [3]int{1, 1, 1}, par: 1, seed: c.seed}
	if c.cut == cutV3 {
		o.cut, o.cutAt = cutV3, c.cutAt
	}
	return o
}

func (c matrixCase) ranks() int { return c.grid[0] * c.grid[1] * c.grid[2] }

// drawCase is the generator.
func drawCase(seed int64) matrixCase {
	r := rand.New(rand.NewSource(seed))
	c := matrixCase{seed: seed, production: r.Intn(3) > 0}
	// Half the draws are wake-up draws: tracked, over the Voronoi layer, on
	// four x-blocks 3 cells wide of a 12×6 cross-section. In a section
	// twice as long in x as in y, grains meet in boundaries nearly normal
	// to x, so a block can hold one phase everywhere but its high x ghost
	// column, where the next block's grain starts; only that column may
	// then keep a slice awake.
	wake := r.Intn(2) == 0
	if wake {
		c.production = true
		c.grid = [3]int{4, 1, 1}
		c.grid[1+r.Intn(2)] = 1 + r.Intn(2) // a second y or z block, or none
	} else {
		for {
			c.grid = [3]int{1 + r.Intn(4), 1 + r.Intn(4), 1 + r.Intn(4)}
			if c.ranks() <= 8 {
				break
			}
		}
	}
	// Block widths of every residue mod 4; z blocks of at least 8 slices,
	// so a share of two workers always cuts a full sweep into slabs.
	width := func(p int) int {
		if p == 1 {
			return 6 + r.Intn(4)
		}
		return p * (3 + r.Intn(4))
	}
	c.nx, c.ny = width(c.grid[0]), width(c.grid[1])
	if wake {
		c.nx, c.ny = 12, 6
	}
	if c.grid[2] == 1 {
		c.nz = 16 + r.Intn(13)
		if r.Intn(2) == 0 {
			c.window = 7.5 / float64(c.nz) // just under the nuclei's top
			if !c.production {
				c.window = 0.45
			}
		}
	} else {
		c.nz = c.grid[2] * (8 + r.Intn(4))
	}
	c.steps = 12 + r.Intn(9)
	c.overlap = solver.OverlapMode(r.Intn(2))
	c.track = wake || r.Intn(2) == 0
	c.telemetry = r.Intn(2) == 0
	if c.ranks() > 1 && r.Intn(3) == 0 {
		c.procs = 2 + r.Intn(min(3, c.ranks()-1))
	}
	// A share of 1..4 workers per rank of the busiest process, and a grow
	// or shrink to another share; a share that is not a multiple of the
	// rank count leaves its remainder idle.
	local := (c.ranks() + max(1, c.procs) - 1) / max(1, c.procs)
	share := 1 + r.Intn(4)
	c.par = share*local + r.Intn(2)
	if r.Intn(3) == 0 {
		c.budget, c.budgetAt = (1+(share+r.Intn(3))%4)*local, 1+r.Intn(c.steps-1)
	}
	c.cut = interruption(r.Intn(4))
	c.cutAt = 2 + r.Intn(c.steps-3)
	if c.cut == cutReshard {
		c.regrid = drawRegrid(r, c)
		if c.regrid == c.grid {
			c.cut = cutF64
		}
	}
	c.items = drawSchedule(r, c)
	return c
}

// drawRegrid draws another grid the domain divides into, with room for
// the case's processes and the window's undecomposed z.
func drawRegrid(r *rand.Rand, c matrixCase) [3]int {
	for range 20 {
		g := [3]int{1 + r.Intn(4), 1 + r.Intn(4), 1}
		if c.window == 0 {
			g[2] = 1 + r.Intn(4)
		}
		n := g[0] * g[1] * g[2]
		if c.nx%g[0] == 0 && c.ny%g[1] == 0 && c.nz%g[2] == 0 && c.nz/g[2] >= 8 &&
			n <= 8 && n >= c.procs && g != c.grid {
			return g
		}
	}
	return c.grid
}

// drawSchedule draws one to four items, each event class at most once.
func drawSchedule(r *rand.Rand, c matrixCase) [][]schedule.Event {
	flip := func(axis int, step int, kind grid.BCKind) []schedule.Event {
		var evs []schedule.Event
		for _, f := range []schedule.BCField{schedule.BCPhi, schedule.BCMu} {
			for _, face := range []grid.Face{grid.Face(2 * axis), grid.Face(2*axis + 1)} {
				evs = append(evs, schedule.SetBC{Step: step, Face: face, Field: f, Kind: kind})
			}
		}
		return evs
	}
	g := core.DefaultParams().Temp.G
	step := func() int { return r.Intn(c.steps - 1) }
	pool := []func() []schedule.Event{
		func() []schedule.Event {
			return []schedule.Event{schedule.Ramp{Param: schedule.ParamPullVelocity, Step: step(),
				Over: 1 + r.Intn(c.steps), From: 0.02, To: 0.02 + 0.04*r.Float64()}}
		},
		func() []schedule.Event {
			return []schedule.Event{schedule.Ramp{Param: schedule.ParamGradient, Step: step(),
				Over: 1 + r.Intn(c.steps), From: g, To: g * (0.8 + 0.4*r.Float64())}}
		},
		func() []schedule.Event { // sharp nuclei early into the undercooled melt below the isotherm
			z0 := c.nz/2 - 5 + r.Intn(2)
			return []schedule.Event{schedule.NucleationBurst{Step: r.Intn(3), Count: 1 + r.Intn(4),
				Phase: r.Intn(4) - 1, Radius: 1 + 1.5*r.Float64(), ZMin: z0, ZMax: z0 + 3, Seed: r.Int63()}}
		},
		func() []schedule.Event {
			return []schedule.Event{schedule.Checkpoint{Step: step(), Every: 3 + r.Intn(5)}}
		},
		func() []schedule.Event { // the z walls: a µ ramp and a φ switch, or a flip to periodic
			if c.window == 0 && r.Intn(2) == 0 {
				return flip(2, step(), grid.BCPeriodic)
			}
			return []schedule.Event{
				schedule.SetBC{Step: step(), Over: r.Intn(c.steps), Face: grid.ZMin, Field: schedule.BCMu,
					Kind: grid.BCDirichlet, From: []float64{0, 0}, To: []float64{0.06, -0.03}},
				schedule.SetBC{Step: step(), Face: grid.ZMax, Field: schedule.BCPhi,
					Kind: grid.BCDirichlet, To: []float64{0, 0, 0, 1}},
			}
		},
		func() []schedule.Event { return flip(r.Intn(2), step(), grid.BCNeumann) }, // lateral walls
	}
	var items [][]schedule.Event
	for _, i := range r.Perm(len(pool))[:1+r.Intn(4)] {
		items = append(items, pool[i]())
	}
	return items
}

// pinnedCases are the shapes production and the benchmark run, plus the
// golden trajectory (every event class, window, mid-BC-ramp V3 restart) on
// a 2×2 grid in process and over four TCP processes.
func pinnedCases() []matrixCase {
	velocity := []schedule.Event{schedule.Ramp{Param: schedule.ParamPullVelocity, Over: 10, From: 0.02, To: 0.05}}
	burst := []schedule.Event{schedule.NucleationBurst{Step: 6, Count: 3, Phase: -1, Radius: 2.5, ZMin: 10, ZMax: 16, Seed: 7}}
	golden := [][]schedule.Event{
		{schedule.Ramp{Param: schedule.ParamPullVelocity, Over: 30, From: 0.02, To: 0.05}},
		{schedule.NucleationBurst{Step: 10, Count: 3, Phase: -1, Radius: 2.5, ZMin: 10, ZMax: 16, Seed: 7}},
		{schedule.Checkpoint{Every: goldenCkptStep}},
		{goldenBCRamp, schedule.SetBC{Step: 32, Face: grid.ZMax, Field: schedule.BCPhi,
			Kind: grid.BCDirichlet, To: []float64{0, 0, 0, 1}}},
	}
	solidify := matrixCase{name: "solidify_restart", seed: 42, nx: 16, ny: 16, nz: 24, production: true,
		window: 0.5, items: golden, steps: goldenSteps, grid: [3]int{2, 2, 1}, par: 4,
		overlap: solver.OverlapMu, track: true, telemetry: true, cut: cutV3, cutAt: goldenCkptStep}
	solidifyTCP := solidify
	solidifyTCP.name, solidifyTCP.procs = "solidify_restart_tcp", 4
	return []matrixCase{
		{name: "dense_interface", nx: 16, ny: 16, nz: 16, steps: 8, grid: [3]int{1, 1, 1}, par: 4,
			overlap: solver.OverlapMu, track: true, telemetry: true},
		{name: "sparse_column", nx: 8, ny: 8, nz: 48, production: true, window: 7.5 / 48, steps: 20,
			grid: [3]int{1, 1, 1}, par: 2, overlap: solver.OverlapMu, track: true, telemetry: true},
		{name: "halo_tcp", nx: 16, ny: 8, nz: 16, steps: 10, grid: [3]int{2, 1, 1}, par: 1,
			overlap: solver.OverlapMu, track: true, telemetry: true, procs: 2},
		{name: "io_cycle", nx: 12, ny: 12, nz: 16, steps: 10, grid: [3]int{1, 1, 1}, par: 2,
			overlap: solver.OverlapMu, track: true, telemetry: true, cut: cutF64, cutAt: 4},
		{name: "jobd", nx: 12, ny: 12, nz: 24, production: true, steps: 14, items: [][]schedule.Event{velocity, burst},
			grid: [3]int{2, 2, 1}, par: 2, budget: 8, budgetAt: 3, overlap: solver.OverlapMu, track: true,
			telemetry: true, cut: cutF64, cutAt: 7},
		solidify,
		solidifyTCP,
		// Narrow tracked x-blocks over the Voronoi layer: a slice may sleep
		// only if the next block's grains in its high x ghost column allow.
		{name: "tracked_seams", seed: 76, nx: 12, ny: 6, nz: 28, production: true, steps: 18, grid: [3]int{4, 1, 1},
			par: 1, overlap: solver.OverlapMu, track: true, telemetry: true},
		// 6×6 x/y blocks on a 2×4 grid: the ghost ring of a slice that
		// slept last step is refilled from neighbour ranks every step, and
		// only re-reading it keeps the slice awake when a grain arrives.
		{name: "tracked_ring", seed: 260, nx: 12, ny: 24, nz: 17, production: true, steps: 13, grid: [3]int{2, 4, 1},
			par: 1, overlap: solver.OverlapNone, track: true},
		// A melt column on two x-blocks with one nucleus burst below the
		// isotherm, near an x seam but not across it. Its tails cross the
		// seam a step or more later, while the other block's slices there
		// sleep and carry; they wake only because a rank with a remote x
		// face re-reads its ghost ring every step (a ring-local rank may
		// trust it). The y twin runs on two y-blocks.
		seamBurst("seam_burst_x", [3]int{2, 1, 1}, 7),
		seamBurst("seam_burst_y", [3]int{1, 2, 1}, 16),
	}
}

// seamBurst is a tracked 16×16×32 production column on blocks with one
// phase-0 nucleus burst at step 3 whose lateral position burstSeed draws.
func seamBurst(name string, blocks [3]int, burstSeed int64) matrixCase {
	burst := schedule.NucleationBurst{Step: 3, Count: 1, Phase: 0, Radius: 2.5, ZMin: 12, ZMax: 14, Seed: burstSeed}
	return matrixCase{name: name, seed: 3, nx: 16, ny: 16, nz: 32, production: true, steps: 14,
		items: [][]schedule.Event{{burst}}, grid: blocks, par: 1, overlap: solver.OverlapNone, track: true}
}

func TestBitwiseMatrix(t *testing.T) {
	cases := pinnedCases()
	for seed := int64(1); seed <= matrixSeeds; seed++ {
		cases = append(cases, drawCase(seed))
	}
	if *matrixSeed != 0 {
		t.Logf("-matrix.seed=%d", *matrixSeed)
		cases = append(cases, drawCase(*matrixSeed))
	}
	oracles := map[string]matrixState{}
	check := func(c matrixCase) error {
		o := c.oracle()
		key := fmt.Sprintf("%#v", o)
		want, ok := oracles[key]
		if !ok {
			var err error
			if want, err = runCase(o, t.TempDir()); err != nil {
				return fmt.Errorf("oracle: %w", err)
			}
			oracles[key] = want
		}
		got, err := runCase(c, t.TempDir())
		if err != nil {
			return err
		}
		return got.diff(want)
	}
	for _, c := range cases {
		name := c.name
		if name == "" {
			name = fmt.Sprintf("seed%d", c.seed)
		}
		t.Run(name, func(t *testing.T) {
			t.Log(c)
			err := check(c)
			if err == nil {
				return
			}
			replay := "a pinned case"
			if c.name == "" {
				replay = fmt.Sprintf("replay: go test -run TestBitwiseMatrix . -args -matrix.seed=%d", c.seed)
			}
			small, serr := shrinkCase(c, err, check)
			t.Errorf("%v\n  case:   %v\n  (%s)\n  shrunk: %v\n  fails:  %v", err, c, replay, small, serr)
		})
	}
}

// shrinkCase resets one axis at a time to its oracle value, and drops
// schedule items, while the case still fails the same way.
func shrinkCase(c matrixCase, err error, check func(matrixCase) error) (matrixCase, error) {
	kind := func(e error) string { return strings.SplitN(e.Error(), ":", 2)[0] }
	resets := []func(*matrixCase){
		func(c *matrixCase) { c.procs = 0 },
		func(c *matrixCase) { c.grid, c.procs = [3]int{1, 1, 1}, 0 },
		func(c *matrixCase) { c.cut, c.cutAt, c.regrid = cutNone, 0, [3]int{} },
		func(c *matrixCase) { c.budget, c.budgetAt = 0, 0 },
		func(c *matrixCase) { c.par = 1 },
		func(c *matrixCase) { c.overlap = solver.OverlapNone },
		func(c *matrixCase) { c.track = false },
		func(c *matrixCase) { c.telemetry = false },
	}
	for i := range c.items {
		resets = append(resets, func(c *matrixCase) {
			if i < len(c.items) {
				c.items = append(c.items[:i:i], c.items[i+1:]...)
			}
		})
	}
	for changed := true; changed; {
		changed = false
		for _, reset := range resets {
			next := c
			reset(&next)
			if reflect.DeepEqual(next, c) {
				continue
			}
			if e := check(next); e != nil && kind(e) == kind(err) {
				c, err, changed = next, e, true
			}
		}
	}
	return c, err
}

// matrixState is what a case is compared on: the global fields, and the
// step, window shift, axis periodicity and live BCs printed with %v, which
// tells every two float64 values apart, signed zeros included.
type matrixState struct {
	phi, mu *grid.Field
	meta    string
}

func (s matrixState) diff(o matrixState) error {
	if ok, d := s.phi.InteriorEqual(o.phi, 0); !ok {
		return fmt.Errorf("mismatch: φ differs by %g", d)
	}
	if ok, d := s.mu.InteriorEqual(o.mu, 0); !ok {
		return fmt.Errorf("mismatch: µ differs by %g", d)
	}
	if s.meta != o.meta {
		return fmt.Errorf("mismatch: step, shift, periodicity, φ and µ BCs\n  %s\n  oracle %s", s.meta, o.meta)
	}
	return nil
}

// workersPerRank reads the solver's per-rank worker share, which the
// root package cannot see otherwise.
func workersPerRank(s *Simulation) int {
	return int(reflect.ValueOf(s.sim).Elem().FieldByName("workersPerRank").Int())
}

// runCase runs c in dir and returns its final state, or the first error:
// a run error, a case whose drawn axes did not engage ("engagement: …"),
// or a failed interruption.
func runCase(c matrixCase, dir string) (matrixState, error) {
	var evs []schedule.Event
	for _, it := range c.items {
		evs = append(evs, it...)
	}
	sched, err := schedule.New(evs...)
	if err != nil {
		return matrixState{}, err
	}
	cfg := func(par int, d *DistConfig) Config {
		cfg := DefaultConfig(c.nx, c.ny, c.nz)
		cfg.PX, cfg.PY, cfg.PZ = c.grid[0], c.grid[1], c.grid[2]
		cfg.Overlap = c.overlap
		cfg.Parallelism = par
		cfg.MovingWindow, cfg.WindowFraction = c.window > 0, c.window
		cfg.DisableActiveSweep, cfg.DisableStepTelemetry = !c.track, !c.telemetry
		cfg.Seed = c.seed
		cfg.Distributed = d
		return cfg
	}
	par := c.par
	sims, err := startProcs(c.procs, func(d *DistConfig) (*Simulation, error) {
		s, err := New(cfg(par, d))
		if err != nil {
			return nil, err
		}
		if c.production {
			return s, s.InitProduction()
		}
		return s, s.InitFront()
	})
	if err != nil {
		return matrixState{}, err
	}
	defer func() { closeSims(sims) }()

	// minActive is the smallest active fraction each process saw after a
	// step.
	minActive := make([]float64, max(1, c.procs))
	for p := range minActive {
		minActive[p] = 1
	}
	leg := func(until int) error {
		for _, s := range sims {
			if err := engaged(s, par); err != nil {
				return err
			}
		}
		return each(sims, func(p int, s *Simulation) error {
			var budgetErr error
			err := s.RunSchedule(sched, until-s.Step(), ScheduleOptions{
				CheckpointPath: filepath.Join(dir, fmt.Sprintf("sched%d_%%06d.pfcp", p)),
				OnStep: func(step int) bool {
					minActive[p] = min(minActive[p], s.ActiveFraction())
					if step == c.budgetAt && c.budget > 0 {
						if budgetErr = s.SetWorkerBudget(c.budget); budgetErr == nil {
							budgetErr = engaged(s, c.budget)
						}
						return budgetErr != nil
					}
					return false
				},
			})
			return errors.Join(err, budgetErr)
		})
	}
	if c.cut != cutNone {
		if err := leg(c.cutAt); err != nil {
			return matrixState{}, err
		}
		if c.budget > 0 && c.budgetAt <= c.cutAt {
			par = c.budget
		}
		if sims, err = interrupt(c, sims, dir, func(d *DistConfig) Config { return cfg(par, d) }); err != nil {
			return matrixState{}, err
		}
	}
	if err := leg(c.steps); err != nil {
		return matrixState{}, err
	}

	// Engagement of the remaining drawn axes.
	root := sims[0]
	for _, s := range sims {
		if c.procs > 0 && s.NumProcs() != c.procs {
			return matrixState{}, fmt.Errorf("engagement: %d processes, drew %d", s.NumProcs(), c.procs)
		}
		if n := len(s.StepRecords(nil)); c.telemetry != (n > 0) {
			return matrixState{}, fmt.Errorf("engagement: telemetry %v but %d step records", c.telemetry, n)
		}
	}
	switch active := slices.Min(minActive); {
	case c.track && c.production && !(active < 1):
		return matrixState{}, errors.New("engagement: tracked a production column and slept nothing")
	case !c.track && active != 1:
		return matrixState{}, fmt.Errorf("engagement: tracking off but active fraction %g", active)
	case c.window > 0 && root.WindowShift() == 0:
		return matrixState{}, errors.New("engagement: the window never shifted")
	}
	// Every fired SetBC is in force, and every periodicity flip is realized
	// in the axis topology.
	phiBCs, muBCs := root.DomainBCs()
	periodic := [3]bool{true, true, false}
	for _, e := range evs {
		if bc, ok := e.(schedule.SetBC); ok && bc.Step < c.steps {
			if live := [2]grid.BoundarySet{phiBCs, muBCs}[bc.Field][bc.Face].Kind; live != bc.Kind {
				return matrixState{}, fmt.Errorf("engagement: %v in force, schedule set %v", live, bc)
			}
			if bc.Kind != grid.BCDirichlet {
				periodic[bc.Face/2] = bc.Kind == grid.BCPeriodic
			}
		}
	}
	if got := root.sim.World.Topology().Periodic; got != periodic {
		return matrixState{}, fmt.Errorf("engagement: axis periodicity %v, schedule flipped to %v", got, periodic)
	}

	st := matrixState{meta: fmt.Sprint(root.Step(), root.WindowShift(), periodic, phiBCs, muBCs)}
	st.phi, st.mu = gatherDist(sims)
	return st, nil
}

// engaged checks the worker axis: a share of two or more workers per rank
// of the process must reach every rank, and a smaller one must not.
func engaged(s *Simulation, par int) error {
	if w, cut := workersPerRank(s), par >= 2*s.sim.NumRanks(); cut != (w >= 2) {
		return fmt.Errorf("engagement: %d workers per rank at a share of %d over %d ranks", w, par, s.sim.NumRanks())
	}
	return nil
}

// interrupt writes the case's checkpoint, closes every process and
// resumes from it the way production does; the restore takes the domain,
// grid and kernel from the checkpoint and the rest from cfg.
func interrupt(c matrixCase, sims []*Simulation, dir string, cfg func(d *DistConfig) Config) ([]*Simulation, error) {
	path := filepath.Join(dir, "cut.pfcp")
	var snap []byte
	err := each(sims, func(p int, s *Simulation) error {
		if c.cut == cutV3 {
			return s.Checkpoint(path)
		}
		var buf bytes.Buffer
		if err := s.WriteCheckpoint(&buf, ckpt.Float64); err != nil || !s.IsRoot() {
			return err
		}
		snap = buf.Bytes()
		if c.cut == cutReshard {
			return os.WriteFile(path, snap, 0o644)
		}
		return nil
	})
	closeSims(sims)
	if err != nil {
		return nil, err
	}
	sims, err = startProcs(c.procs, func(d *DistConfig) (*Simulation, error) {
		switch c.cut {
		case cutV3:
			return Restore(path, cfg(d))
		case cutF64:
			return RestoreReader(bytes.NewReader(snap), cfg(d))
		}
		return RestoreResharded(path, c.regrid[0], c.regrid[1], c.regrid[2], cfg(d))
	})
	if err != nil {
		return nil, err
	}
	if got := sims[0].Step(); got != c.cutAt {
		closeSims(sims)
		return nil, fmt.Errorf("engagement: %v resumed at step %d, cut at %d", c.cut, got, c.cutAt)
	}
	return sims, nil
}
