package exp

import (
	"os"
	"path/filepath"
	"testing"
)

// goldenIDs are the experiments pinned byte-for-byte: all twenty
// tables (E18 is unassigned). A reader can only trust that a
// refactor left the model alone if every table it could shift is
// pinned, so the list is exhaustive rather than a covering sample.
// Notable coverage: E1 (bus control-plane init, all flavors), E2
// (NIC/virtqueue/SSD data plane under load), E3-E8 (the centralized
// kernel's syscall, registry, mmap, interrupt and copy costs against
// the CPU-less flavors), E9 (doorbell batching), E10 (bus speed
// sensitivity), E11-E13 (NIC value cache, demand paging, IOMMU huge
// pages), E14 (seeded message loss), E15 (crash-restart-rejoin chaos),
// E16 (overload ramps), E17 (rack-scale fabric run with NO reconciler
// attached — pinning it proves the reconcile layer is byte-invisible
// until Attach is called), E19 (the only table that drives the
// reconciler's repair/probe/bound timing and fabric spares and rolling
// upgrades), E20 (the adversarial-tenancy matrix — together with the
// other goldens all running tenancy-off it proves the tenancy hooks are
// byte-invisible until a registry is configured) and E21 (the
// split-brain matrix — the only golden that runs with epoch leases ON;
// the leases-OFF goldens E17/E19 prove the lease hooks are
// byte-invisible until Config.Leases is set). Any accidental event,
// cost, or ordering change shifts at least one of these tables.
var goldenIDs = []string{
	"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11",
	"E12", "E13", "E14", "E15", "E16", "E17", "E19", "E20", "E21",
}

// TestTablesGolden asserts the pinned experiment tables are byte-
// identical to the recorded goldens. The overload defenses (credit flow
// control, bounded queues, admission control) are compiled into every
// layer these experiments exercise but default off — zero config must
// mean zero behavior change.
//
// Regenerate after an intentional timing change with:
//
//	NOCPU_REGEN_GOLDEN=1 go test -run TestTablesGolden ./internal/exp
func TestTablesGolden(t *testing.T) {
	regen := os.Getenv("NOCPU_REGEN_GOLDEN") != ""
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			res, err := Run(id)
			if err != nil {
				t.Fatal(err)
			}
			got := res.String()
			path := filepath.Join("testdata", "golden", id+".golden")
			if regen {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with NOCPU_REGEN_GOLDEN=1): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s table drifted from golden.\nIf the timing change is intentional, regenerate with NOCPU_REGEN_GOLDEN=1.\ngot:\n%s\nwant:\n%s", id, got, want)
			}
		})
	}
}
