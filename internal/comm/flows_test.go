package comm

import (
	"testing"

	"repro/internal/grid"
)

// TestPeerFlowsAndLatency runs the shared stats scenario (two rounds on a
// 2×1×1 x-periodic decomposition) and checks the per-(peer, tag) flow
// counters and exchange-latency histograms that back the daemon's /metrics
// series.
func TestPeerFlowsAndLatency(t *testing.T) {
	bg, err := grid.NewBlockGrid(2, 1, 1, 4, 4, 4, [3]bool{true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(bg)
	defer w.Close()
	runStatsScenario(t, bg, []*World{w})

	flows := w.PeerFlows()
	// Each rank sends to the other through both x-faces, one tag: two
	// aggregated streams. Per stream: 2 frames (16 cells × 8 B) per round.
	if len(flows) != 2 {
		t.Fatalf("got %d flows, want 2: %+v", len(flows), flows)
	}
	for i, fl := range flows {
		if fl.Rank != i || fl.Peer != 1-i || fl.Tag != TagPhi {
			t.Errorf("flow %d endpoints wrong: %+v", i, fl)
		}
		if fl.Frames != 4 || fl.Bytes != 4*16*8 {
			t.Errorf("flow %d counters wrong: %+v", i, fl)
		}
	}

	// One histogram sample per ExchangeGhosts call: 2 rounds × 2 local
	// ranks for φ, nothing on µ.
	if s := w.ExchangeLatency(TagPhi); s.Count != 4 || s.Sum <= 0 {
		t.Errorf("phi latency snapshot wrong: count=%d sum=%v", s.Count, s.Sum)
	}
	if s := w.ExchangeLatency(TagMu); s.Count != 0 {
		t.Errorf("mu latency count = %d, want 0", s.Count)
	}

	// The in-process fabric keeps no network-fault accounting.
	if _, _, ok := w.NetStats(); ok {
		t.Error("in-process transport claims NetCounters")
	}

	w.ResetStats()
	if flows := w.PeerFlows(); len(flows) != 0 {
		t.Errorf("flows survived ResetStats: %+v", flows)
	}
	if s := w.ExchangeLatency(TagPhi); s.Count != 0 {
		t.Errorf("latency survived ResetStats: count=%d", s.Count)
	}
}
