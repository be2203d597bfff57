package solver

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/faultfs"
	"repro/internal/kernels"
)

// fault.go isolates kernel panics. A panic inside a sweep — a real bug or
// an armed faultfs point — must not kill the process or, worse, deadlock
// it: a sweep runs on a pool worker or a rank goroutine, and dying there
// leaves the dispatching rank blocked on its WaitGroup and neighbor ranks
// blocked in ghost exchanges. So every sweep task recovers its own panics,
// records the first one in the Sim's fault sink, and returns normally. The
// step protocol then completes mechanically — the faulted slab holds
// garbage, ghost exchanges ship it around — and the fault surfaces at the
// next step boundary, where runStep refuses to continue. RunSchedule
// returns the fault as an error (the job daemon routes it into the job's
// retry/quarantine path); the plain Run loop re-panics it, preserving the
// fail-fast crash of the CLI tools.
//
// A lost TCP link is the other sticky fault. The transport panics with a
// *comm.TransportError on whichever goroutine touches the dead peer: a
// rank goroutine (forAllRanks raises it again on the caller), a pool
// worker running a µ exchange task (the rank raises it after the join) or
// the caller itself in a collective. RunSchedule recovers it, keeps it, and returns it.

// KernelFault is a panic captured inside a kernel sweep. It satisfies
// error so it can travel through RunSchedule's error return into the job
// daemon's failure handling.
type KernelFault struct {
	// Op names the sweep that panicked ("phi" or "mu").
	Op string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack string
}

// Error implements the error interface.
func (f *KernelFault) Error() string {
	return fmt.Sprintf("solver: kernel panic in %s-sweep: %v", f.Op, f.Value)
}

func (op sweepOp) String() string {
	if op == opPhi {
		return "phi"
	}
	return "mu"
}

// SweepPoint is the faultfs crash-point name hit once per swept slab (a
// per-op variant "solver.sweep.<op>" is hit alongside it). Arming it in
// Config.Faults panics inside the sweep exactly where a poisoned kernel
// would, exercising the full recovery path.
const SweepPoint = "solver.sweep"

// faultSink collects the first kernel fault of a simulation. It is a
// separate allocation so queued sweep tasks reference it, not the Sim,
// keeping the Sim collectable (its cleanup closes the worker pool).
type faultSink struct {
	first  atomic.Pointer[KernelFault]
	points *faultfs.Points
}

// record stores the first fault; later ones are dropped (concurrent slabs
// of one poisoned sweep may all panic).
func (fs *faultSink) record(op sweepOp, v any) {
	f := &KernelFault{Op: op.String(), Value: v, Stack: string(debug.Stack())}
	fs.first.CompareAndSwap(nil, f)
}

// sweepPointName holds the per-op crash-point names, precomputed so the
// hot path never builds strings.
var sweepPointName = [2]string{
	opPhi: SweepPoint + ".phi",
	opMu:  SweepPoint + ".mu",
}

// hit fires the sweep crash points for one slab.
func (fs *faultSink) hit(op sweepOp) {
	if fs.points == nil {
		return
	}
	fs.points.Hit(SweepPoint)
	fs.points.Hit(sweepPointName[op])
}

// Fault returns the first kernel panic captured by this simulation's
// sweeps, or nil. A faulted simulation refuses to step further.
func (s *Sim) Fault() *KernelFault { return s.faults.first.Load() }

// stopped returns the sticky fault that stops the simulation — the first
// kernel panic, or the lost link — or nil.
func (s *Sim) stopped() error {
	if f := s.faults.first.Load(); f != nil {
		return f
	}
	if s.lost != nil {
		return s.lost
	}
	return nil
}

// catchLinkLoss, deferred by RunSchedule, turns a *comm.TransportError
// panic into the simulation's sticky fault and RunSchedule's error. Any
// other panic propagates.
func (s *Sim) catchLinkLoss(err *error) {
	v := recover()
	if v == nil {
		return
	}
	te, ok := v.(*comm.TransportError)
	if !ok {
		panic(v)
	}
	if s.lost == nil {
		s.lost = te
	}
	*err = s.lost
}

// runGuarded sweeps the slab [z0,z1) with panic isolation: the
// fault-injection points fire first, and any panic (injected or real) is recorded in the
// sink instead of unwinding into the pool worker or rank goroutine. The
// deferred closure captures only the sink and the op — capturing t would
// heap-escape every serial-path sweepTask (the steady-state step must stay
// allocation-free).
func (t *sweepTask) runGuarded(sc *kernels.Scratch, z0, z1 int) {
	sink, op := t.sink, t.op
	defer func() {
		if r := recover(); r != nil {
			if sink == nil {
				panic(r)
			}
			sink.record(op, r)
		}
	}()
	sink.hit(op)
	t.run(sc, z0, z1)
}
