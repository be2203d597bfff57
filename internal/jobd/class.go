package jobd

import (
	"fmt"
	"sort"
)

// class.go — resource classes. A class is a named worker-budget cap W_c:
// the jobs of class c running at any instant never hold more than W_c of
// the global budget W in total, so an array of cheap scouts (class
// "small") cannot starve a production run (class "large") no matter how
// many children it queues.
//
// Shares are assigned by per-class water-filling: the global budget is
// split max-min fairly across classes in proportion to their running job
// counts, no class above its cap, with budget a capped class cannot use
// flowing to the others; within a class, jobs split the class total
// evenly. With a single class (the default), this reduces exactly to the
// original ⌊W/n⌋ policy.
//
// Classes double as the federation's tenant boundary: the gateway
// (internal/fleet) maps each tenant to one class and stamps every spec it
// forwards, so a daemon's class caps *are* its per-tenant compute caps —
// no second quota mechanism. ClassUsage / GET /classes exposes the live
// per-class load the gateway's placement reads.

// DefaultClass is the resource class of jobs that name none. Its budget is
// the full global budget unless Config.Classes overrides it.
const DefaultClass = "default"

// ClassUsage is the live view of one resource class (GET /classes): its
// configured worker cap and current load. The federation gateway places
// tenant work on the daemon whose tenant class has the most headroom.
type ClassUsage struct {
	Class string `json:"class"`
	// Budget is the class's worker cap W_c (1 for a class the daemon does
	// not configure but a restored job names).
	Budget int `json:"budget"`
	// Active is the number of sweep workers the class's jobs hold right now.
	Active int `json:"active"`
	// Running and Queued count the class's jobs in those states.
	Running int `json:"running"`
	Queued  int `json:"queued"`
}

// ClassUsage reports every class the daemon knows — configured ones plus
// any a live job names — sorted by class name.
func (s *Server) ClassUsage() []ClassUsage {
	s.mu.Lock()
	rows := map[string]*ClassUsage{}
	row := func(name string) *ClassUsage {
		r, ok := rows[name]
		if !ok {
			r = &ClassUsage{Class: name, Budget: s.classBudget(name)}
			rows[name] = r
		}
		return r
	}
	for name := range s.classes {
		row(name)
	}
	for _, j := range s.running {
		row(j.Spec.Class).Running++
	}
	for _, j := range s.queue {
		row(j.Spec.Class).Queued++
	}
	s.mu.Unlock()

	out := make([]ClassUsage, 0, len(rows))
	for _, r := range rows {
		// The gauge is read outside s.mu: worker counts move while jobs
		// step, so this is a snapshot either way.
		r.Active = s.gauge.Class(r.Class).Active()
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// resolveClasses normalizes the configured class table: budgets are
// clamped to [1, budget] and the default class always exists.
func resolveClasses(budget int, classes map[string]int) map[string]int {
	out := make(map[string]int, len(classes)+1)
	for name, w := range classes {
		if name == "" {
			name = DefaultClass
		}
		if w < 1 {
			w = 1
		}
		if w > budget {
			w = budget
		}
		out[name] = w
	}
	if _, ok := out[DefaultClass]; !ok {
		out[DefaultClass] = budget
	}
	return out
}

// classBudget returns the worker cap of a class. Submissions validate the
// name up front; a name that is unknown anyway (a stored job restored
// under different -class flags) is capped at one worker — the
// conservative reading that preserves the anti-starvation guarantee for
// the classes that *are* configured. warnUnknownClass makes the situation
// loud at load time.
func (s *Server) classBudget(name string) int {
	if w, ok := s.classes[name]; ok {
		return w
	}
	return 1
}

// warnUnknownClass logs a restored job whose class the current daemon
// does not configure.
func (s *Server) warnUnknownClass(id, class string) {
	if _, ok := s.classes[class]; !ok {
		s.logf("jobd: restored job %s names unconfigured class %q — capped at 1 worker (re-add the -class flag to restore its budget)", id, class)
	}
}

// validateClass rejects submissions naming an unconfigured class or a
// decomposition the class cap can never run.
func (s *Server) validateClass(sp *Spec) error {
	if _, ok := s.classes[sp.Class]; !ok {
		names := make([]string, 0, len(s.classes))
		for n := range s.classes {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("jobd: unknown resource class %q (configured: %v)", sp.Class, names)
	}
	if w := s.classBudget(sp.Class); sp.blocks() > w {
		return fmt.Errorf("jobd: job needs %d block ranks but class %q caps at %d workers",
			sp.blocks(), sp.Class, w)
	}
	return nil
}

// sharesLocked computes every running job's worker share — plus that of an
// optional admission candidate — by per-class water-filling. s.mu must be
// held.
func (s *Server) sharesLocked(extra *Job) map[*Job]int {
	jobs := make([]*Job, 0, len(s.running)+1)
	for _, j := range s.running {
		jobs = append(jobs, j)
	}
	if extra != nil {
		jobs = append(jobs, extra)
	}
	return s.sharesFor(jobs)
}

// sharesFor water-fills the budget over an explicit job set.
// Deterministic: classes are processed most-constrained first (smallest
// cap per job, ties by name), so equal inputs always produce equal
// shares. The shares sum to at most the global budget.
func (s *Server) sharesFor(jobs []*Job) map[*Job]int {
	byClass := map[string][]*Job{}
	total := 0
	for _, j := range jobs {
		byClass[j.Spec.Class] = append(byClass[j.Spec.Class], j)
		total++
	}
	shares := make(map[*Job]int, total)
	if total == 0 {
		return shares
	}

	type load struct {
		name string
		cap  int
		jobs []*Job
	}
	classes := make([]load, 0, len(byClass))
	for name, jobs := range byClass {
		classes = append(classes, load{name: name, cap: s.classBudget(name), jobs: jobs})
	}
	// Most-constrained class first: smallest cap per job; name breaks ties.
	sort.Slice(classes, func(a, b int) bool {
		ca, cb := classes[a], classes[b]
		if ca.cap*len(cb.jobs) != cb.cap*len(ca.jobs) {
			return ca.cap*len(cb.jobs) < cb.cap*len(ca.jobs)
		}
		return ca.name < cb.name
	})
	remW, remJobs := s.cfg.Budget, total
	for _, c := range classes {
		alloc := remW * len(c.jobs) / remJobs
		if alloc > c.cap {
			alloc = c.cap
		}
		remW -= alloc
		remJobs -= len(c.jobs)
		share := alloc / len(c.jobs)
		for _, j := range c.jobs {
			shares[j] = share
		}
	}
	return shares
}
