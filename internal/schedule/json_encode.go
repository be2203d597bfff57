package schedule

import (
	"encoding/json"
	"fmt"

	"repro/internal/grid"
)

// json_encode.go is the inverse of the JSON front-end: it serializes events
// back into the schedule-file format FromJSON reads. This is what makes the
// solver's applied-event audit log (Sim.AppliedEvents) replayable — the
// recorder of an interactive or daemon-driven run dumps a schedule file
// that reproduces the same trajectory from the same initial state
// (`solidify -record out.json`, `GET /jobs/{id}/schedule`).

// faceJSONNames is the canonical reverse of faceNames (which carries
// aliases like "bottom").
var faceJSONNames = map[grid.Face]string{
	grid.XMin: "x-", grid.XMax: "x+",
	grid.YMin: "y-", grid.YMax: "y+",
	grid.ZMin: "z-", grid.ZMax: "z+",
}

// kindJSONNames is the reverse of bcKindNames.
var kindJSONNames = map[grid.BCKind]string{
	grid.BCPeriodic:  "periodic",
	grid.BCNeumann:   "neumann",
	grid.BCDirichlet: "dirichlet",
}

// encodeEvent lowers one event to its JSON object. Maps marshal with
// sorted keys, so the output is deterministic.
func encodeEvent(ev Event) (map[string]any, error) {
	switch e := ev.(type) {
	case NucleationBurst:
		return map[string]any{
			"type": "burst", "step": e.Step, "count": e.Count,
			"phase": e.Phase, "radius": e.Radius,
			"zmin": e.ZMin, "zmax": e.ZMax, "seed": e.Seed,
		}, nil
	case Ramp:
		return map[string]any{
			"type": "ramp", "param": e.Param.String(), "step": e.Step,
			"over": e.Over, "from": e.From, "to": e.To,
		}, nil
	case SetBC:
		face, ok := faceJSONNames[e.Face]
		if !ok {
			return nil, fmt.Errorf("schedule: unencodable face %d", int(e.Face))
		}
		kind, ok := kindJSONNames[e.Kind]
		if !ok {
			return nil, fmt.Errorf("schedule: unencodable BC kind %d", int(e.Kind))
		}
		m := map[string]any{
			"type": "setbc", "step": e.Step, "face": face,
			"field": e.Field.String(), "kind": kind,
		}
		if e.Over != 0 {
			m["over"] = e.Over
		}
		if e.From != nil {
			m["from"] = e.From
		}
		if e.To != nil {
			m["to"] = e.To
		}
		return m, nil
	case Checkpoint:
		m := map[string]any{"type": "checkpoint", "every": e.Every}
		if e.Step != 0 {
			m["step"] = e.Step
		}
		if e.Path != "" {
			m["path"] = e.Path
		}
		return m, nil
	}
	return nil, fmt.Errorf("schedule: unencodable event %T", ev)
}

// EncodeJSON serializes events into the schedule-file format read by
// FromJSON. The events are emitted in the given order and are NOT
// validated against each other — an audit log may legally contain
// combinations New would reject as a prescription (e.g. two one-shots
// rebased onto the same restart step); FromJSON applies the usual rules on
// replay.
func EncodeJSON(events []Event) ([]byte, error) {
	out := struct {
		Events []map[string]any `json:"events"`
	}{Events: make([]map[string]any, 0, len(events))}
	for i, ev := range events {
		m, err := encodeEvent(ev)
		if err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		out.Events = append(out.Events, m)
	}
	return json.MarshalIndent(&out, "", "  ")
}
