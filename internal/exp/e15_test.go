package exp

import (
	"reflect"
	"testing"
)

// TestE15Guarantees is the chaos test tier (make chaos): it runs seeded
// crash schedules on every machine architecture and asserts the
// recovery guarantees — the client history is linearizable (L1: no
// acked write lost, no op applied twice), every crash recovered within
// the bound (G3) — plus the rejoin protocol's bookkeeping.
func TestE15Guarantees(t *testing.T) {
	for _, kind := range []machineKind{kindDecentralized, kindCentralDirect, kindCentralMediated} {
		for i, sc := range e15Scheds {
			row := e15Run(kind, sc, 0xE15+uint64(i))
			name := kind.label() + "/" + sc.name
			if !row.lin.OK {
				t.Errorf("%s: L1 violated: history for key %q not linearizable", name, row.lin.BadKey)
			}
			if len(row.lin.Aborted) != 0 {
				t.Errorf("%s: L1 checker aborted on keys %v — verdict unknown", name, row.lin.Aborted)
			}
			if got := len(row.recovered); got != row.crashes {
				t.Errorf("%s: %d/%d crash events recovered (G3)", name, got, row.crashes)
			}
			if row.maxRecov > e15G3Bound {
				t.Errorf("%s: max recovery %v exceeds bound %v (G3)", name, row.maxRecov, e15G3Bound)
			}
			if row.acked == 0 {
				t.Errorf("%s: workload acked nothing; the run proves nothing", name)
			}
			// Every crash is followed by a rejoin (a double-failure event
			// produces two).
			wantRejoins := uint64(row.crashes + sc.doubles)
			if row.rejoins != wantRejoins {
				t.Errorf("%s: %d rejoins, want %d", name, row.rejoins, wantRejoins)
			}
		}
	}
}

// TestE15Reproducible runs one cell twice and requires bit-identical
// outcomes: same schedule, same counts, same recovery windows.
func TestE15Reproducible(t *testing.T) {
	sc := e15Scheds[3] // mixed + double
	a := e15Run(kindDecentralized, sc, 0xE15+3)
	b := e15Run(kindDecentralized, sc, 0xE15+3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different outcome:\n%+v\nvs\n%+v", a, b)
	}
}
