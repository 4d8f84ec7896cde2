package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"nocpu/internal/fabric"
)

// TestE17ChaosClean is the fabric tier's hard gate: every machine-kill
// campaign's client history must be linearizable (L1: no acked write
// lost, no duplicate apply), every touched key routable after recovery
// (R3), and every outage window bounded. Runs under -race via
// `make fabric`.
func TestE17ChaosClean(t *testing.T) {
	for i, fc := range e17Flavors {
		fc := fc
		seed := 0xE17C + uint64(i)
		t.Run(fc.flavor.String(), func(t *testing.T) {
			t.Parallel()
			row := e17Chaos(fc.flavor, fc.victims, seed)
			if !row.lin.OK {
				t.Errorf("L1 violated: history for key %q not linearizable", row.lin.BadKey)
			}
			if len(row.lin.Aborted) != 0 {
				t.Errorf("L1 checker aborted on keys %v — verdict unknown", row.lin.Aborted)
			}
			if len(row.unroutable) != 0 {
				t.Errorf("R3 violated: unroutable keys: %v", row.unroutable)
			}
			if row.maxRecov > e17RecoveryBound {
				t.Errorf("recovery exceeded %v: %v", e17RecoveryBound, row.recovered)
			}
			if len(row.recovered) < row.kills {
				t.Errorf("only %d/%d kills saw service restored", len(row.recovered), row.kills)
			}
			if row.acked == 0 {
				t.Error("campaign acked nothing")
			}
			if row.maxEpoch != 2 {
				t.Errorf("max epoch %d after 2 kills, want 2", row.maxEpoch)
			}
		})
	}
}

// TestE17ScaleDeterministic: one scaling cell, run twice, must agree to
// the byte (same seed → same table; the full-grid check is the tables
// diff in CI).
func TestE17ScaleDeterministic(t *testing.T) {
	runCell := func() string {
		st, rt := e17Scale(4, fabric.FlavorHead, true)
		return fmt.Sprintf("%d %d %v %v %d %d %d",
			st.Completed, st.Errors, st.Latency.P50(), st.Latency.P99(),
			rt.Local, rt.Remote, rt.HeadRelayed)
	}
	a, b := runCell(), runCell()
	if a != b {
		t.Errorf("identical E17 cells diverged:\n  a: %s\n  b: %s", a, b)
	}
}

// TestE17ScalingSeparates pins the experiment's headline at test scale:
// the decentralized fabric must outscale the head-node relay once the
// rack is big enough for the head's rx queue to saturate.
func TestE17ScalingSeparates(t *testing.T) {
	dec, _ := e17Scale(8, fabric.FlavorDecentralized, false)
	head, _ := e17Scale(8, fabric.FlavorHead, false)
	if dec.Throughput() < 1.5*head.Throughput() {
		t.Errorf("decentralized (%.0f op/s) does not outscale head-node (%.0f op/s) at N=8",
			dec.Throughput(), head.Throughput())
	}
}

// TestE17BenchSnapshot writes BENCH_e17.json — a simulator-speed
// snapshot (wall-clock events/sec while running one rack-scale cell) —
// when NOCPU_BENCH_SNAPSHOT=1. Tracked per PR so engine performance
// becomes a trajectory (ROADMAP item 2), not a hard gate.
func TestE17BenchSnapshot(t *testing.T) {
	if os.Getenv("NOCPU_BENCH_SNAPSHOT") == "" {
		t.Skip("set NOCPU_BENCH_SNAPSHOT=1 to write BENCH_e17.json")
	}
	start := time.Now()
	st, _ := e17Scale(16, fabric.FlavorDecentralized, false)
	wall := time.Since(start)
	virt := st.Span
	doc := fmt.Sprintf(`{
  "experiment": "E17",
  "cell": {"machines": 16, "flavor": "decentralized", "dist": "uniform"},
  "ops": %d,
  "virtual_span_ns": %d,
  "wall_seconds": %.3f,
  "ops_per_wall_second": %.0f
}
`, st.Completed, int64(virt), wall.Seconds(), float64(st.Completed)/wall.Seconds())
	if err := os.WriteFile("../../BENCH_e17.json", []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("BENCH_e17.json: %d ops in %.3fs wall", st.Completed, wall.Seconds())
}

// e17BenchGuardTolerance is the regression threshold: the guard fails
// when the measured simulator speed drops more than 30% below the
// committed BENCH_e17.json snapshot.
const e17BenchGuardTolerance = 0.30

// TestE17BenchGuard re-runs the snapshot cell and fails on a >30%
// simulator-speed regression against the committed BENCH_e17.json.
// Wall-clock measurement is machine-dependent, so the guard is gated
// behind NOCPU_BENCH_GUARD=1 (`make benchguard`, run by CI) and takes
// the best of three runs to shave scheduler noise.
func TestE17BenchGuard(t *testing.T) {
	if os.Getenv("NOCPU_BENCH_GUARD") == "" {
		t.Skip("set NOCPU_BENCH_GUARD=1 to compare against BENCH_e17.json")
	}
	raw, err := os.ReadFile("../../BENCH_e17.json")
	if err != nil {
		t.Fatalf("no committed snapshot to guard against: %v", err)
	}
	var snap struct {
		OpsPerWallSecond float64 `json:"ops_per_wall_second"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("BENCH_e17.json: %v", err)
	}
	if snap.OpsPerWallSecond <= 0 {
		t.Fatalf("BENCH_e17.json has no ops_per_wall_second baseline")
	}
	best := 0.0
	for run := 0; run < 3; run++ {
		start := time.Now()
		st, _ := e17Scale(16, fabric.FlavorDecentralized, false)
		if speed := float64(st.Completed) / time.Since(start).Seconds(); speed > best {
			best = speed
		}
	}
	floor := snap.OpsPerWallSecond * (1 - e17BenchGuardTolerance)
	if best < floor {
		t.Errorf("simulator speed regressed: best of 3 runs %.0f op/s < %.0f (baseline %.0f − %d%%); if the slowdown is intentional, regenerate the snapshot with NOCPU_BENCH_SNAPSHOT=1",
			best, floor, snap.OpsPerWallSecond, int(e17BenchGuardTolerance*100))
	} else {
		t.Logf("bench guard: %.0f op/s vs baseline %.0f (floor %.0f)", best, snap.OpsPerWallSecond, floor)
	}
}
