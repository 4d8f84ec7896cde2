package exp

import (
	"reflect"
	"testing"

	"nocpu/internal/linearize"
	"nocpu/internal/sim"
)

// The G3 clock: a crash opens a window, the next acknowledged op closes
// every open window, and maxRecovery is the widest one.
func TestCampaignRecoveryClock(t *testing.T) {
	eng := sim.NewEngine()
	c := newCampaignClient(eng, nil, sim.Millisecond, sim.Millisecond)
	c.crashed(eng.Now())
	eng.RunFor(2 * sim.Millisecond)
	c.progress()
	c.crashed(eng.Now())
	eng.RunFor(9 * sim.Millisecond)
	c.progress()
	c.progress() // no window open: nothing to close
	want := []sim.Duration{2 * sim.Millisecond, 9 * sim.Millisecond}
	if !reflect.DeepEqual(c.recovered, want) {
		t.Fatalf("recovered = %v, want %v", c.recovered, want)
	}
	if got := c.maxRecovery(); got != 9*sim.Millisecond {
		t.Fatalf("maxRecovery = %v, want 9ms", got)
	}
}

// The read-back worklist is every key in the history once, sorted, and
// acked counts only puts answered OK.
func TestCampaignKeysAndAcks(t *testing.T) {
	c := newCampaignClient(sim.NewEngine(), nil, sim.Millisecond, sim.Millisecond)
	for i, k := range []string{"b", "a", "c", "a"} {
		id := c.hist.Invoke(linearize.Put, k, uint64(i+1), 0)
		if k != "c" {
			c.hist.Return(id, linearize.OK, 0, 1)
		}
	}
	c.hist.Invoke(linearize.Get, "d", 0, 2)
	if got := c.keys(); !reflect.DeepEqual(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("keys() = %v", got)
	}
	if got := c.acked(); got != 3 {
		t.Fatalf("acked() = %d, want 3", got)
	}
}
