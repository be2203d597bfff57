package phasefield

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/ckpt"
)

// Checkpoint bytes are part of the bitwise contract: the same state must
// serialize to the same file on every build, whatever the decomposition's
// transport. The SHA-256 of the V3 (float32) and V4 (float64) checkpoints of
// the golden scenario after a few steps is pinned per decomposition, so a
// change to the field layout, the row order or the gather that moves one
// byte fails here. Regenerate after an intentional format or physics change
// with
//
//	go test -run TestCheckpointBytesPinned -update .

const ckptHashPath = "testdata/checkpoint.sha256"

// ckptPinSteps is how far the pinned runs advance before checkpointing.
const ckptPinSteps = 6

// ckptPinSim runs the golden scenario on a px×1 decomposition for
// ckptPinSteps steps.
func ckptPinSim(t *testing.T, px int) *Simulation {
	t.Helper()
	sim := mkGoldenSim(t, px, 1)
	t.Cleanup(sim.Close)
	sim.Run(ckptPinSteps)
	return sim
}

// ckptHash returns the SHA-256 of sim's checkpoint at precision prec.
func ckptHash(t *testing.T, sim *Simulation, prec ckpt.Precision) string {
	t.Helper()
	var buf bytes.Buffer
	if err := sim.WriteCheckpoint(&buf, prec); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// readCkptHashes parses the pin file: one "name hash" pair per line.
func readCkptHashes(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(ckptHashPath)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to generate): %v", err)
	}
	out := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 {
			out[f[0]] = f[1]
		}
	}
	return out
}

func TestCheckpointBytesPinned(t *testing.T) {
	got := map[string]string{}
	var names []string
	for _, px := range []int{1, 2} {
		sim := ckptPinSim(t, px)
		for _, p := range []struct {
			tag  string
			prec ckpt.Precision
		}{{"v3", ckpt.Float32}, {"v4", ckpt.Float64}} {
			name := fmt.Sprintf("%s_%dx1", p.tag, px)
			got[name] = ckptHash(t, sim, p.prec)
			names = append(names, name)
		}
	}

	// The same 2×1 run over two TCP processes: the root-gathered V4 bytes
	// must equal the in-process ones.
	dir := t.TempDir()
	sims := startDistSims(t, 2, func(proc int, d *DistConfig) (*Simulation, error) {
		cfg := goldenConfig()
		cfg.PX, cfg.PY = 2, 1
		cfg.Distributed = d
		s, err := New(cfg)
		if err != nil {
			return nil, err
		}
		return s, s.InitProduction()
	})
	var wg sync.WaitGroup
	for _, s := range sims {
		wg.Add(1)
		go func(s *Simulation) { defer wg.Done(); s.Run(ckptPinSteps) }(s)
	}
	wg.Wait()
	tcpPath := filepath.Join(dir, "tcp.pfcp")
	checkpointDist(t, sims, tcpPath)
	raw, err := os.ReadFile(tcpPath)
	if err != nil {
		t.Fatal(err)
	}
	if tcp := fmt.Sprintf("%x", sha256.Sum256(raw)); tcp != got["v4_2x1"] {
		t.Errorf("V4 checkpoint gathered over TCP hashes %s, in-process %s", tcp, got["v4_2x1"])
	}

	if *update {
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, got[n])
		}
		if err := os.WriteFile(ckptHashPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", ckptHashPath)
		return
	}
	// Fused multiply-adds on other architectures move float bits; the pins
	// are of the amd64 bytes at the default GOAMD64=v1.
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned hashes are of amd64 output; running on %s", runtime.GOARCH)
	}
	pinned := readCkptHashes(t)
	for _, n := range names {
		if pinned[n] != got[n] {
			t.Errorf("%s checkpoint hash %s, pinned %q", n, got[n], pinned[n])
		}
	}
}
