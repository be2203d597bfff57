package jobd

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/schedule"
)

// array.go — job arrays: one POST /arrays submission expands a template
// spec over a parameter grid into N child jobs, the campaign form of the
// paper's process-parameter studies. Children are ordinary jobs (same
// queue, scheduler, preemption and store) with three extras: deterministic
// ids derived from the array id and grid index, a recorded parameter
// assignment, and a shared fairness group so a wide array interleaves with
// other submissions instead of monopolizing its priority level.

// MaxArrayChildren bounds the expansion of one array submission (1000
// keeps the three-digit child-id suffix dense and lexicographically
// ordered).
const MaxArrayChildren = 1000

// Axis is one dimension of an array's parameter grid: the named template
// parameter takes each of Values in turn. The reserved name "seed" drives
// the child spec's RNG seed (and may also appear in the schedule
// template); every other name must appear as a "${name}" placeholder in
// the template schedule.
type Axis struct {
	Param  string    `json:"param"`
	Values []float64 `json:"values"`
}

// ArraySpec is an array submission: a child-job template plus the
// parameter grid to expand it over (the JSON body of POST /arrays). The
// template's Schedule may reference grid parameters as "${name}"
// (schedule.Instantiate semantics); its Params map, when present, supplies
// fixed template parameters shared by every child. Child count is the
// product of the axis lengths, expanded row-major with the first axis
// slowest.
type ArraySpec struct {
	Name     string `json:"name,omitempty"`
	Template Spec   `json:"template"`
	Axes     []Axis `json:"axes"`
}

// Array is the daemon-side record of one expanded array. Children is
// immutable after creation; child lifecycle lives on the child jobs.
type Array struct {
	ID       string
	Spec     ArraySpec
	Children []string // child job ids, grid order
	seq      int64
}

// ArrayStatus is the API view of an array (GET /arrays/{id}).
type ArrayStatus struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// State aggregates the children: running while any child is active,
	// then failed/canceled/done by worst outcome.
	State  State         `json:"state"`
	Counts map[State]int `json:"counts"`
	// Missing counts children absent from the registry (possible only
	// after a restart once store retention evicted their records).
	Missing  int      `json:"missing,omitempty"`
	Children []Status `json:"children"`
}

// ChildResult is one entry of an array's results aggregation.
type ChildResult struct {
	ID     string             `json:"id"`
	Params map[string]float64 `json:"params,omitempty"`
	Class  string             `json:"class"`
	State  State              `json:"state"`
	Step   int                `json:"step"`
	Time   float64            `json:"time"`
	Solid  float64            `json:"solid"`
	Error  string             `json:"error,omitempty"`
	// ResultPath is the endpoint serving the child's final checkpoint,
	// empty until the child is done.
	ResultPath string `json:"result_path,omitempty"`
}

// ArrayResults is the aggregation served by GET /arrays/{id}/results.
type ArrayResults struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State State  `json:"state"`
	// Missing counts children absent from the registry (see
	// ArrayStatus.Missing); a campaign with missing records never reports
	// itself done.
	Missing  int           `json:"missing,omitempty"`
	Children []ChildResult `json:"children"`
}

// childSpec is one expanded grid point.
type childSpec struct {
	spec  Spec
	sched *schedule.Schedule
}

// expand materializes the grid: validates the axes against the template
// (parsed once), instantiates the schedule per grid point and validates
// every child.
func (as *ArraySpec) expand() ([]childSpec, error) {
	if len(as.Axes) == 0 {
		return nil, fmt.Errorf("jobd: array needs at least one axis")
	}
	var tmpl *schedule.Template
	var tmplParams []string
	if len(as.Template.Schedule) > 0 {
		var err error
		if tmpl, err = schedule.ParseTemplate(as.Template.Schedule); err != nil {
			return nil, err
		}
		tmplParams = tmpl.Params()
	}
	inTemplate := map[string]bool{}
	for _, p := range tmplParams {
		inTemplate[p] = true
	}
	n := 1
	seen := map[string]bool{}
	for i, ax := range as.Axes {
		if ax.Param == "" {
			return nil, fmt.Errorf("jobd: array axis %d has no param name", i)
		}
		if seen[ax.Param] {
			return nil, fmt.Errorf("jobd: array axis %q appears twice", ax.Param)
		}
		seen[ax.Param] = true
		if ax.Param != "seed" && !inTemplate[ax.Param] {
			return nil, fmt.Errorf("jobd: array axis %q is not referenced by the template schedule (placeholders: %v)",
				ax.Param, tmplParams)
		}
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("jobd: array axis %q has no values", ax.Param)
		}
		for _, v := range ax.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("jobd: array axis %q has non-finite value %g", ax.Param, v)
			}
			if ax.Param == "seed" && v != math.Trunc(v) {
				return nil, fmt.Errorf("jobd: seed axis value %g is not an integer", v)
			}
		}
		if n > MaxArrayChildren/len(ax.Values) {
			return nil, fmt.Errorf("jobd: array expands past the %d-child limit", MaxArrayChildren)
		}
		n *= len(ax.Values)
	}

	name := as.Name
	if name == "" {
		name = as.Template.Name
	}
	children := make([]childSpec, 0, n)
	idx := make([]int, len(as.Axes))
	for c := 0; c < n; c++ {
		params := map[string]float64{}
		for k, v := range as.Template.Params {
			params[k] = v
		}
		for a, ax := range as.Axes {
			params[ax.Param] = ax.Values[idx[a]]
		}
		sp := as.Template
		sp.Params = params
		sp.Name = fmt.Sprintf("%s[%d]", name, c)
		if v, ok := params["seed"]; ok {
			// The seed may come from an axis (checked above) or from the
			// template's fixed params — either way it must be integral, or
			// the truncated Spec.Seed would diverge from the value
			// substituted into the schedule.
			if v != math.Trunc(v) {
				return nil, fmt.Errorf("jobd: array child %d: seed %g is not an integer", c, v)
			}
			sp.Seed = int64(v)
		}
		var sched *schedule.Schedule
		if tmpl != nil {
			// One parse per child: the instantiated schedule is both the
			// blob the child spec embeds and the schedule the runner uses.
			var blob []byte
			var err error
			if sched, blob, err = tmpl.Instantiate(params); err != nil {
				return nil, fmt.Errorf("jobd: array child %d: %w", c, err)
			}
			sp.Schedule = blob
			if err := validateSubmittedSchedule(sched); err != nil {
				return nil, fmt.Errorf("jobd: array child %d: %w", c, err)
			}
			if err := sp.validateFields(); err != nil {
				return nil, fmt.Errorf("jobd: array child %d: %w", c, err)
			}
		} else {
			var err error
			if sched, err = sp.normalize(); err != nil {
				return nil, fmt.Errorf("jobd: array child %d: %w", c, err)
			}
		}
		children = append(children, childSpec{spec: sp, sched: sched})

		// Row-major advance, last axis fastest.
		for a := len(idx) - 1; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(as.Axes[a].Values) {
				break
			}
			idx[a] = 0
		}
	}
	return children, nil
}

// Expand materializes the array's parameter grid into child specs in grid
// order, without submitting anything: each spec carries its instantiated
// schedule blob, parameter assignment and "name[i]" naming, exactly as
// SubmitArray would enqueue it. The federation gateway expands arrays
// centrally and submits the children to different daemons as plain jobs —
// resubmitting an identical spec elsewhere yields bit-identical results,
// which is what makes gateway-side requeue after a daemon loss sound.
func (as *ArraySpec) Expand() ([]Spec, error) {
	children, err := as.expand()
	if err != nil {
		return nil, err
	}
	specs := make([]Spec, len(children))
	for i, c := range children {
		specs[i] = c.spec
	}
	return specs, nil
}

// SubmitArray expands an array spec and enqueues every child. The
// expansion is all-or-nothing: an invalid grid point rejects the whole
// submission.
func (s *Server) SubmitArray(as ArraySpec) (*Array, error) {
	children, err := as.expand()
	if err != nil {
		return nil, err
	}
	for i := range children {
		if err := s.validateClass(&children[i].spec); err != nil {
			return nil, fmt.Errorf("jobd: array child %d: %w", i, err)
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	s.nextArrayID++
	arr := &Array{ID: fmt.Sprintf("arr-%04d", s.nextArrayID)}
	arr.Spec = as
	s.nextSeq++
	arr.seq = s.nextSeq
	for i, c := range children {
		s.nextSeq++
		j := newJob(fmt.Sprintf("%s.%03d", arr.ID, i), s.nextSeq, c.spec, c.sched)
		j.group = arr.ID
		j.array = arr.ID
		s.jobs[j.ID] = j
		s.enqueueLocked(j)
		arr.Children = append(arr.Children, j.ID)
	}
	s.arrays[arr.ID] = arr
	s.mu.Unlock()
	s.wakeup()
	s.persistArray(arr)
	return arr, nil
}

// GetArray returns an array by id.
func (s *Server) GetArray(id string) (*Array, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.arrays[id]
	return a, ok
}

// ListArrays returns all arrays ordered by submission.
func (s *Server) ListArrays() []*Array {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Array, 0, len(s.arrays))
	for _, a := range s.arrays {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// CancelArray cancels every non-terminal child of an array.
func (s *Server) CancelArray(id string) (ArrayStatus, bool) {
	arr, ok := s.GetArray(id)
	if !ok {
		return ArrayStatus{}, false
	}
	for _, cid := range arr.Children {
		if j, ok := s.Get(cid); ok && !j.State().terminal() {
			s.Cancel(cid)
		}
	}
	return s.ArrayStatus(arr), true
}

// ArrayStatus aggregates the children's states.
func (s *Server) ArrayStatus(arr *Array) ArrayStatus {
	st := ArrayStatus{
		ID: arr.ID, Name: arr.Spec.Name,
		Counts:   map[State]int{},
		Children: make([]Status, 0, len(arr.Children)),
	}
	for _, cid := range arr.Children {
		j, ok := s.Get(cid)
		if !ok {
			st.Missing++
			continue
		}
		cs := j.Status()
		st.Counts[cs.State]++
		st.Children = append(st.Children, cs)
	}
	st.State = aggregateState(st.Counts, st.Missing)
	return st
}

// aggregateState folds child-state counts into one array state: active
// children dominate, then the worst terminal outcome. Missing child
// records count as failures — an array must never claim "done" for
// children it cannot account for.
func aggregateState(counts map[State]int, missing int) State {
	switch {
	case counts[StateRunning] > 0:
		return StateRunning
	case counts[StateQueued] > 0:
		return StateQueued
	case counts[StateFailed] > 0 || missing > 0:
		return StateFailed
	case counts[StateCanceled] > 0:
		return StateCanceled
	default:
		return StateDone
	}
}

// ArrayResults builds the results aggregation: per-child parameter
// assignment, metrics summary and result location.
func (s *Server) ArrayResults(arr *Array) ArrayResults {
	out := ArrayResults{ID: arr.ID, Name: arr.Spec.Name,
		Children: make([]ChildResult, 0, len(arr.Children))}
	counts := map[State]int{}
	for _, cid := range arr.Children {
		j, ok := s.Get(cid)
		if !ok {
			out.Missing++
			continue
		}
		st := j.Status()
		counts[st.State]++
		cr := ChildResult{
			ID: cid, Params: j.Spec.Params, Class: j.Spec.Class,
			State: st.State, Step: st.Step, Time: st.Time, Solid: st.Solid,
			Error: st.Error,
		}
		if s.hasResult(j) {
			cr.ResultPath = "/jobs/" + cid + "/result"
		}
		out.Children = append(out.Children, cr)
	}
	out.State = aggregateState(counts, out.Missing)
	return out
}
