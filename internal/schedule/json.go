package schedule

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/grid"
)

// json.go is the JSON front-end of the schedule subsystem (the format read
// by cmd/solidify -schedule). A schedule file is an object with an "events"
// array; each event is discriminated by its "type" field:
//
//	{"events": [
//	  {"type": "burst",  "step": 200, "count": 6, "phase": -1,
//	   "radius": 2.5, "zmin": 40, "zmax": 56, "seed": 7},
//	  {"type": "ramp",   "param": "v", "step": 0, "over": 800,
//	   "from": 0.02, "to": 0.05},
//	  {"type": "setbc",  "step": 300, "over": 200, "face": "z-",
//	   "field": "mu", "kind": "dirichlet", "from": [0, 0], "to": [0.08, -0.04]},
//	  {"type": "checkpoint", "every": 500, "path": "out/state_%06d.pfcp"}
//	]}
//
// Face names are "x-", "x+", "y-", "y+", "z-", "z+"; BC kinds are
// "periodic", "neumann", "dirichlet"; setbc fields are "phi" (4 wall
// values, one per phase) or "mu" (2, one per reduced chemical potential).
// "from"/"to" are numbers on a ramp and arrays on a setbc event. The
// former "switch" event (run-time kernel switching) is rejected: the
// kernel variant is fixed when the simulation is built.

var paramNames = map[string]Param{
	"v":        ParamPullVelocity,
	"velocity": ParamPullVelocity,
	"g":        ParamGradient,
	"gradient": ParamGradient,
	"dt":       ParamDt,
}

// ParseParam resolves a JSON ramp parameter name.
func ParseParam(name string) (Param, error) {
	if p, ok := paramNames[strings.ToLower(name)]; ok {
		return p, nil
	}
	return 0, fmt.Errorf("schedule: unknown ramp param %q", name)
}

var faceNames = map[string]grid.Face{
	"x-": grid.XMin, "x+": grid.XMax,
	"y-": grid.YMin, "y+": grid.YMax,
	"z-": grid.ZMin, "z+": grid.ZMax,
	"bottom": grid.ZMin, "top": grid.ZMax,
}

// ParseFace resolves a JSON face name ("z-", "top", ...).
func ParseFace(name string) (grid.Face, error) {
	if f, ok := faceNames[strings.ToLower(name)]; ok {
		return f, nil
	}
	return 0, fmt.Errorf("schedule: unknown face %q", name)
}

var bcKindNames = map[string]grid.BCKind{
	"periodic":  grid.BCPeriodic,
	"neumann":   grid.BCNeumann,
	"dirichlet": grid.BCDirichlet,
}

// ParseBCKind resolves a JSON boundary-condition kind name.
func ParseBCKind(name string) (grid.BCKind, error) {
	if k, ok := bcKindNames[strings.ToLower(name)]; ok {
		return k, nil
	}
	return 0, fmt.Errorf("schedule: unknown BC kind %q", name)
}

var bcFieldNames = map[string]BCField{
	"phi": BCPhi,
	"mu":  BCMu,
}

// ParseBCField resolves a JSON setbc field name.
func ParseBCField(name string) (BCField, error) {
	if f, ok := bcFieldNames[strings.ToLower(name)]; ok {
		return f, nil
	}
	return 0, fmt.Errorf("schedule: unknown BC field %q", name)
}

// jsonEvent is the union of all event fields, discriminated by Type.
type jsonEvent struct {
	Type string `json:"type"`
	Step int    `json:"step"`

	// burst
	Count  int     `json:"count"`
	Phase  *int    `json:"phase"`
	Radius float64 `json:"radius"`
	ZMin   int     `json:"zmin"`
	ZMax   int     `json:"zmax"`
	Seed   int64   `json:"seed"`

	// ramp + setbc. From/To are raw because the two event classes share
	// the keys with different shapes: a ramp carries numbers, a setbc
	// event arrays of wall values.
	Param string          `json:"param"`
	Over  int             `json:"over"`
	From  json.RawMessage `json:"from"`
	To    json.RawMessage `json:"to"`

	// switch (removed): the keys still decode so that a legacy file reaches
	// toEvent's explanatory error instead of "unknown field".
	Phi      string `json:"phi"`
	Mu       string `json:"mu"`
	Strategy string `json:"strategy"`

	// setbc
	Face  string `json:"face"`
	Field string `json:"field"`
	Kind  string `json:"kind"`

	// checkpoint
	Every int    `json:"every"`
	Path  string `json:"path"`
}

// scalar decodes a ramp endpoint (missing = 0).
func scalar(raw json.RawMessage, key string) (float64, error) {
	if raw == nil {
		return 0, nil
	}
	var v float64
	if err := json.Unmarshal(raw, &v); err != nil {
		return 0, fmt.Errorf("%s: %w", key, err)
	}
	return v, nil
}

// vector decodes a setbc wall-value array (missing = nil).
func vector(raw json.RawMessage, key string) ([]float64, error) {
	if raw == nil {
		return nil, nil
	}
	var v []float64
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("%s: %w", key, err)
	}
	return v, nil
}

type jsonSchedule struct {
	Events []jsonEvent `json:"events"`
}

// FromJSONBytes parses and validates a schedule from an in-memory blob
// (the embedded "schedule" object of a job-daemon submission).
func FromJSONBytes(b []byte) (*Schedule, error) {
	return FromJSON(bytes.NewReader(b))
}

// FromJSON parses and validates a schedule file.
func FromJSON(r io.Reader) (*Schedule, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var js jsonSchedule
	if err := dec.Decode(&js); err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	events := make([]Event, 0, len(js.Events))
	for i, je := range js.Events {
		e, err := je.toEvent()
		if err != nil {
			return nil, fmt.Errorf("schedule: event %d: %w", i, err)
		}
		events = append(events, e)
	}
	return New(events...)
}

func (je *jsonEvent) toEvent() (Event, error) {
	switch strings.ToLower(je.Type) {
	case "burst":
		phase := -1
		if je.Phase != nil {
			phase = *je.Phase
		}
		return NucleationBurst{
			Step: je.Step, Count: je.Count, Phase: phase,
			Radius: je.Radius, ZMin: je.ZMin, ZMax: je.ZMax, Seed: je.Seed,
		}, nil
	case "ramp":
		p, err := ParseParam(je.Param)
		if err != nil {
			return nil, err
		}
		from, err := scalar(je.From, "from")
		if err != nil {
			return nil, err
		}
		to, err := scalar(je.To, "to")
		if err != nil {
			return nil, err
		}
		return Ramp{Param: p, Step: je.Step, Over: je.Over, From: from, To: to}, nil
	case "setbc":
		face, err := ParseFace(je.Face)
		if err != nil {
			return nil, err
		}
		field, err := ParseBCField(je.Field)
		if err != nil {
			return nil, err
		}
		kind, err := ParseBCKind(je.Kind)
		if err != nil {
			return nil, err
		}
		from, err := vector(je.From, "from")
		if err != nil {
			return nil, err
		}
		to, err := vector(je.To, "to")
		if err != nil {
			return nil, err
		}
		return SetBC{Step: je.Step, Over: je.Over, Face: face, Field: field,
			Kind: kind, From: from, To: to}, nil
	case "switch":
		return nil, fmt.Errorf("switch events are no longer supported: the kernel variant is fixed when the simulation is built (solver.Config.Variant) and cannot change mid-run; delete the event")
	case "checkpoint":
		return Checkpoint{Step: je.Step, Every: je.Every, Path: je.Path}, nil
	}
	return nil, fmt.Errorf("unknown event type %q", je.Type)
}
