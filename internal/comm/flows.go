package comm

import (
	"sort"

	"repro/internal/grid"
	"repro/internal/obs"
)

// FlowCounters counts traffic on one directed halo stream: frames sent and
// payload bytes moved. The World keeps
// one per (rank, tag, face); accumulation happens in a stack-local array
// during the staged exchange and is folded under the rank's stats mutex
// once per exchange, so the hot path stays allocation-free.
type FlowCounters struct {
	// Frames is the number of messages sent.
	Frames int64
	// Bytes is the payload volume sent, 8 bytes per float64.
	Bytes int64
}

func (c *FlowCounters) add(other FlowCounters) {
	c.Frames += other.Frames
	c.Bytes += other.Bytes
}

// PeerFlow is the per-(sender, receiver, tag) aggregation of FlowCounters
// that PeerFlows exports: the send-side view of one directed halo stream.
type PeerFlow struct {
	// Rank is the sending rank (local to this process); Peer is the
	// receiving rank, which may live on another process.
	Rank int
	Peer int
	// Tag is the message stream the flow belongs to.
	Tag Tag
	// FlowCounters holds the accumulated frame and byte counts.
	FlowCounters
}

// PeerFlows aggregates the per-face flow counters of this process' local
// ranks by (rank, peer, tag) under the live topology and returns them
// sorted by rank, then peer, then tag. Cold path: the job daemon calls it
// per metrics scrape.
func (w *World) PeerFlows() []PeerFlow {
	type key struct {
		rank, peer int
		tag        Tag
	}
	agg := make(map[key]FlowCounters)
	for _, r := range w.local {
		w.mu[r].Lock()
		for t := 0; t < int(numTags); t++ {
			for face := grid.Face(0); face < grid.NumFaces; face++ {
				fc := w.flows[r][t][face]
				if fc.Frames == 0 {
					continue
				}
				peer, ok := w.topo.Neighbor(r, face)
				if !ok || peer == r {
					continue
				}
				k := key{rank: r, peer: peer, tag: Tag(t)}
				cur := agg[k]
				cur.add(fc)
				agg[k] = cur
			}
		}
		w.mu[r].Unlock()
	}
	out := make([]PeerFlow, 0, len(agg))
	for k, fc := range agg {
		out = append(out, PeerFlow{Rank: k.rank, Peer: k.peer, Tag: k.tag, FlowCounters: fc})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		if out[i].Peer != out[j].Peer {
			return out[i].Peer < out[j].Peer
		}
		return out[i].Tag < out[j].Tag
	})
	return out
}

// ExchangeLatency returns the whole-exchange wall-time histogram for one
// tag, merged over this process' local ranks. Each sample is one staged
// six-face ExchangeGhosts call, blocking or overlapped.
func (w *World) ExchangeLatency(tag Tag) obs.HistogramSnapshot {
	var s obs.HistogramSnapshot
	for _, r := range w.local {
		s.Merge(w.latency[r][tag].Snapshot())
	}
	return s
}

// NetCounters is the optional transport interface exposing network-fault
// accounting. The TCP transport implements it; the in-process fabric does
// not (it cannot lose a connection).
type NetCounters interface {
	// Reconnects returns how many broken per-(peer, tag) streams have been
	// re-established.
	Reconnects() int64
	// ReplayedFrames returns how many frames were retransmitted from the
	// replay ring during reconnect handshakes.
	ReplayedFrames() int64
}

// NetStats reports the transport's reconnect and frame-replay counters.
// ok is false when the transport keeps no such accounting (the in-process
// fabric).
func (w *World) NetStats() (reconnects, replayed int64, ok bool) {
	nc, isNet := w.tr.(NetCounters)
	if !isNet {
		return 0, 0, false
	}
	return nc.Reconnects(), nc.ReplayedFrames(), true
}
