package exp

import (
	"encoding/binary"
	"sort"

	"nocpu/internal/kvs"
	"nocpu/internal/linearize"
	"nocpu/internal/metrics"
	"nocpu/internal/netsim"
	"nocpu/internal/sim"
)

// campaignClient is the client side of every fault campaign (E15, E17,
// E19, E21). Each operation carries its own virtual-time timeout —
// netsim's closed loop cannot drive a crashing system, because an op
// lost in a crash would stall its worker forever — and every
// invocation and response goes into one linearize.History. That
// history is the campaigns' single oracle: L1 (linearize.Check) finds
// a lost acked write, a duplicate or resurrected apply, and a split
// brain alike, judged from client-visible evidence only.
//
// The client also times recovery (G3): a crash opens a window, and the
// next acknowledged operation closes every open window.
type campaignClient struct {
	eng  *sim.Engine
	send netsim.Target
	hist *linearize.History

	timeout sim.Duration // client gives up on an op after this
	backoff sim.Duration // pause after an error answer before the next op
	stopAt  sim.Time     // workers issue no op at or after this instant
	nextVal uint64       // last put value; every put writes a fresh one
	done    int          // workers that reached stopAt

	puts, gets     uint64
	tmouts, errs   uint64
	fenced, maybes uint64             // typed refusals and ambiguous answers
	putLat         *metrics.Histogram // puts settled by an OK answer

	pending   []sim.Time     // crash instants not yet followed by an ack
	recovered []sim.Duration // one window per crash that saw service again
}

func newCampaignClient(eng *sim.Engine, send netsim.Target, timeout, backoff sim.Duration) *campaignClient {
	return &campaignClient{
		eng: eng, send: send, hist: linearize.NewHistory(),
		timeout: timeout, backoff: backoff, putLat: metrics.NewHistogram(),
	}
}

// corruptValue is what a read records when the store answers OK with a
// value that is not one 8-byte word. No put ever writes it, so L1 flags
// the read.
const corruptValue = ^uint64(0)

func u64Value(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// classify maps a KVS response onto the linearize outcome vocabulary.
// Typed refusals (shed, fenced, denied) contractually did not execute;
// errors and unavailability are ambiguous — the op may have executed.
func classify(resp kvs.Response, err error, isGet bool) (linearize.Outcome, uint64) {
	if err != nil {
		return linearize.Maybe, 0
	}
	switch resp.Status {
	case kvs.StatusOK:
		if !isGet {
			return linearize.OK, 0
		}
		if len(resp.Value) != 8 {
			return linearize.OK, corruptValue
		}
		return linearize.OK, binary.LittleEndian.Uint64(resp.Value)
	case kvs.StatusNotFound:
		return linearize.NotFound, 0
	case kvs.StatusShed, kvs.StatusDenied, kvs.StatusFenced:
		return linearize.Fail, 0
	default: // StatusError, StatusUnavailable
		return linearize.Maybe, 0
	}
}

// call sends one operation and records it in the history. Only the
// first response counts, and it is recorded even when it arrives after
// the client gave up on the op: the client still observed it. An op
// that never gets a response stays Pending.
func (c *campaignClient) call(kind linearize.OpKind, key string, val uint64, reply func(linearize.Outcome)) {
	id := c.hist.Invoke(kind, key, val, c.eng.Now())
	req := kvs.Request{Op: kvs.OpGet, Key: key}
	if kind == linearize.Put {
		req = kvs.Request{Op: kvs.OpPut, Key: key, Value: u64Value(val)}
	}
	returned := false
	c.send(kvs.EncodeRequest(req), func(b []byte) {
		if returned {
			return
		}
		returned = true
		resp, err := kvs.DecodeResponse(b)
		out, ret := classify(resp, err, kind == linearize.Get)
		c.hist.Return(id, out, ret, c.eng.Now())
		reply(out)
	})
}

// op runs one workload operation under the client timeout and calls
// next once it settles: at once after a definitive answer or a timeout,
// after the backoff when the system answered with an error (a store
// mid-recovery answers at once, and hammering it only inflates the
// attempt count). Every acknowledged put closes the open recovery
// windows, even one acknowledged after its timeout fired.
func (c *campaignClient) op(kind linearize.OpKind, key string, val uint64, next func()) {
	if kind == linearize.Put {
		c.puts++
	} else {
		c.gets++
	}
	issued := c.eng.Now()
	resolved := false
	var tm *sim.Timer
	c.call(kind, key, val, func(out linearize.Outcome) {
		switch out {
		case linearize.Fail:
			c.fenced++
		case linearize.Maybe:
			c.maybes++
		case linearize.OK:
			if kind == linearize.Put {
				c.progress()
			}
		}
		if resolved {
			return
		}
		resolved = true
		if tm != nil {
			tm.Stop()
		}
		if out != linearize.OK && out != linearize.NotFound {
			c.errs++
			c.eng.After(c.backoff, next)
			return
		}
		if kind == linearize.Put {
			c.putLat.Observe(c.eng.Now().Sub(issued))
		}
		next()
	})
	tm = c.eng.After(c.timeout, func() {
		if resolved {
			return
		}
		resolved = true
		c.tmouts++
		next()
	})
}

// writer runs one closed-loop writer over its own keys, round-robin,
// until stopAt. No two writers share a key.
func (c *campaignClient) writer(keys []string) {
	i := 0
	var issue func()
	issue = func() {
		if c.eng.Now() >= c.stopAt {
			c.done++
			return
		}
		key := keys[i]
		i = (i + 1) % len(keys)
		c.nextVal++
		c.op(linearize.Put, key, c.nextVal, issue)
	}
	issue()
}

// wait advances the engine until all workers have reached stopAt.
func (c *campaignClient) wait(workers int) {
	runUntil(c.eng, func() bool { return c.done == workers })
}

// crashed opens a recovery window at the crash instant.
func (c *campaignClient) crashed(at sim.Time) {
	//lint:allow boundedqueue one entry per scripted crash, and progress drains it on every ack
	c.pending = append(c.pending, at)
}

// progress closes every open recovery window: service is restored.
func (c *campaignClient) progress() {
	now := c.eng.Now()
	for _, at := range c.pending {
		c.recovered = append(c.recovered, now.Sub(at))
	}
	c.pending = c.pending[:0]
}

// maxRecovery returns the widest recovery window, or 0 if none.
func (c *campaignClient) maxRecovery() sim.Duration {
	var max sim.Duration
	for _, d := range c.recovered {
		if d > max {
			max = d
		}
	}
	return max
}

// keys returns every key in the history, sorted.
func (c *campaignClient) keys() []string {
	seen := map[string]bool{}
	var out []string
	for _, op := range c.hist.Ops() {
		if !seen[op.Key] {
			seen[op.Key] = true
			out = append(out, op.Key)
		}
	}
	sort.Strings(out)
	return out
}

// acked counts the puts the system acknowledged.
func (c *campaignClient) acked() uint64 {
	var n uint64
	for _, op := range c.hist.Ops() {
		if op.Kind == linearize.Put && op.Outcome == linearize.OK {
			n++
		}
	}
	return n
}

// sweep reads every key back through the fabric once the campaign has
// settled, recording each read in the history so L1 judges the final
// state too. A key with no definitive answer within the retry budget
// is unroutable (R3); sweep returns those keys.
func (c *campaignClient) sweep() []string {
	var unroutable []string
	for _, key := range c.keys() {
		settled := false
		for attempt := 0; attempt < 40 && !settled; attempt++ {
			var out linearize.Outcome
			got := false
			c.call(linearize.Get, key, 0, func(o linearize.Outcome) { out, got = o, true })
			lim := c.eng.Now().Add(20 * sim.Millisecond)
			for !got && c.eng.Now() < lim {
				c.eng.RunFor(100 * sim.Microsecond)
			}
			if out == linearize.OK || out == linearize.NotFound {
				settled = true
			} else {
				c.eng.RunFor(500 * sim.Microsecond) // mid-failover; ask again
			}
		}
		if !settled {
			unroutable = append(unroutable, key)
		}
	}
	return unroutable
}

// l1Verdict renders an L1 result for a table cell.
func l1Verdict(lin linearize.Result) string {
	if len(lin.Aborted) > 0 {
		return "UNKNOWN"
	}
	if lin.OK {
		return "clean"
	}
	return "FAIL:" + lin.BadKey
}
