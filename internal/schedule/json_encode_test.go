package schedule

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/grid"
)

// Encoding a schedule and decoding it again must reproduce the same events
// (the recorder's dump is replayable).
func TestEncodeJSONRoundTrip(t *testing.T) {
	orig, err := New(
		Ramp{Param: ParamPullVelocity, Step: 0, Over: 100, From: 0.02, To: 0.05},
		Ramp{Param: ParamGradient, Step: 10, Over: 50, From: 1, To: 2},
		NucleationBurst{Step: 20, Count: 3, Phase: -1, Radius: 2.5, ZMin: 4, ZMax: 9, Seed: 7},
		SetBC{Step: 5, Over: 40, Face: grid.ZMin, Field: BCMu, Kind: grid.BCDirichlet,
			From: []float64{0, 0}, To: []float64{0.08, -0.04}},
		SetBC{Step: 60, Face: grid.ZMax, Field: BCPhi, Kind: grid.BCNeumann},
		Checkpoint{Every: 25, Path: "out/state_%06d.pfcp"},
	)
	if err != nil {
		t.Fatal(err)
	}

	blob, err := EncodeJSON(orig.Events)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("decode of encoded schedule failed: %v\n%s", err, blob)
	}
	if len(back.Events) != len(orig.Events) {
		t.Fatalf("round trip lost events: %d -> %d", len(orig.Events), len(back.Events))
	}
	// New sorts stably by start step, and both sides went through it, so
	// positional comparison is meaningful.
	for i := range orig.Events {
		if !reflect.DeepEqual(orig.Events[i], back.Events[i]) {
			t.Errorf("event %d: %#v != %#v", i, back.Events[i], orig.Events[i])
		}
	}
}
