package solver

import (
	"sync"
	"sync/atomic"
)

// WorkerGauge counts sweep workers that are actively executing kernel code
// at this instant, across every Sim it is installed in (Config.Gauge). The
// job daemon shares one gauge across all concurrently running simulations,
// which turns the "jobs never exceed the global worker budget" invariant
// into a measurable quantity: Max() is the high-water mark of concurrently
// busy sweep workers since the last Reset.
//
// Both sweep paths report: a serial sweep counts as one busy worker on the
// rank's own goroutine, and every claim task of the parallel engine counts
// as one busy pool worker, from its first slab claim until the rank's slab
// list is empty. A pool worker running a rank's µ exchange task is not
// counted: it waits on the network, not on a core's worth of kernel work.
//
// A gauge refines into named sub-gauges via Class: installing
// gauge.Class("small") in a Sim counts that Sim's workers on both the
// sub-gauge and the root, so per-resource-class budget caps become
// measurable alongside the global one.
type WorkerGauge struct {
	cur atomic.Int64
	max atomic.Int64

	// parent, when non-nil, also counts every enter/exit of this sub-gauge
	// (sub-gauges are one level deep: Class on a sub-gauge delegates to the
	// root).
	parent  *WorkerGauge
	classes sync.Map // string -> *WorkerGauge
}

// Class returns the named sub-gauge, creating it on first use. Workers
// entering a sub-gauge are counted on it and on its root gauge, so class
// high-water marks and the global one come from one instrumentation point.
func (g *WorkerGauge) Class(name string) *WorkerGauge {
	if g.parent != nil {
		return g.parent.Class(name)
	}
	if sub, ok := g.classes.Load(name); ok {
		return sub.(*WorkerGauge)
	}
	sub, _ := g.classes.LoadOrStore(name, &WorkerGauge{parent: g})
	return sub.(*WorkerGauge)
}

// enter marks one worker busy and updates the high-water mark.
func (g *WorkerGauge) enter() {
	c := g.cur.Add(1)
	for {
		m := g.max.Load()
		if c <= m || g.max.CompareAndSwap(m, c) {
			break
		}
	}
	if g.parent != nil {
		g.parent.enter()
	}
}

// exit marks one worker idle.
func (g *WorkerGauge) exit() {
	g.cur.Add(-1)
	if g.parent != nil {
		g.parent.exit()
	}
}

// Active returns the number of currently busy sweep workers.
func (g *WorkerGauge) Active() int { return int(g.cur.Load()) }

// Max returns the high-water mark of concurrently busy sweep workers since
// the last Reset.
func (g *WorkerGauge) Max() int { return int(g.max.Load()) }

// Reset clears the high-water mark (the instantaneous count is live and
// not resettable).
func (g *WorkerGauge) Reset() { g.max.Store(g.cur.Load()) }
