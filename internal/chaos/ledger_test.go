package chaos

import (
	"testing"

	"nocpu/internal/linearize"
	"nocpu/internal/sim"
)

// Crash-campaign histories as the experiment client records them and
// judges them with linearize.Check: a put cut off by a crash before its
// ack is recorded Maybe, every answered operation OK or NotFound. These
// pin the verdict on the write/crash/read-back shapes a campaign
// produces (the cases the old G1/G2 ledger judged).

// hist builds a sequential single-client history; each step takes 10µs.
type hist struct {
	h   *linearize.History
	now sim.Time
}

func newHist() *hist { return &hist{h: linearize.NewHistory()} }

func (c *hist) op(kind linearize.OpKind, key string, arg uint64, out linearize.Outcome, ret uint64) {
	id := c.h.Invoke(kind, key, arg, c.now)
	c.now += sim.Time(10 * sim.Microsecond)
	c.h.Return(id, out, ret, c.now)
	c.now += sim.Time(10 * sim.Microsecond)
}

func (c *hist) put(key string, val uint64, out linearize.Outcome) {
	c.op(linearize.Put, key, val, out, 0)
}

func (c *hist) get(key string, val uint64, out linearize.Outcome) {
	c.op(linearize.Get, key, 0, out, val)
}

func TestLedgerCleanRun(t *testing.T) {
	c := newHist()
	c.put("k", 1, linearize.OK)
	c.put("k", 2, linearize.Maybe) // crashed before ack
	c.put("k", 3, linearize.OK)
	c.get("k", 3, linearize.OK)
	r := linearize.Check(c.h)
	if !r.OK || len(r.Aborted) != 0 {
		t.Fatalf("clean run flagged: %+v", r)
	}
	if r.Keys != 1 || r.Required != 3 || r.Optional != 1 || r.Excluded != 0 {
		t.Fatalf("classification wrong: %+v", r)
	}
}

// An unacked write may or may not survive a crash; reading it back
// after the crash is legal.
func TestLedgerUnackedWriteSurvives(t *testing.T) {
	c := newHist()
	c.put("k", 1, linearize.OK)
	c.put("k", 2, linearize.Maybe) // never acked
	c.get("k", 2, linearize.OK)
	if r := linearize.Check(c.h); !r.OK || len(r.Aborted) != 0 {
		t.Fatalf("surviving unacked write flagged: %+v", r)
	}
}

func TestLedgerG1Violations(t *testing.T) {
	regressed := func(c *hist) {
		c.put("a", 1, linearize.OK)
		c.put("a", 2, linearize.OK)
		c.get("a", 1, linearize.OK) // regressed below acked 2
	}
	vanished := func(c *hist) {
		c.put("b", 1, linearize.OK)
		c.get("b", 0, linearize.NotFound) // acked key vanished
	}

	c := newHist()
	regressed(c)
	vanished(c)
	r := linearize.Check(c.h)
	if r.OK || r.BadKey != "a" || len(r.Aborted) != 0 {
		t.Fatalf("want violation pinned to key a, got %+v", r)
	}

	// Each shape is a violation on its own.
	for _, tc := range []struct {
		key   string
		build func(*hist)
	}{{"a", regressed}, {"b", vanished}} {
		c := newHist()
		tc.build(c)
		if r := linearize.Check(c.h); r.OK || r.BadKey != tc.key {
			t.Fatalf("key %s: want violation, got %+v", tc.key, r)
		}
	}
}
