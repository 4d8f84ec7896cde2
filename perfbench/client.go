package main

import (
	"encoding/binary"
	"sort"

	"nocpu/internal/kvs"
	"nocpu/internal/linearize"
	"nocpu/internal/sim"
)

// sender delivers one request payload to the system under test and
// calls reply with the response bytes (possibly never).
type sender func(payload []byte, reply func([]byte))

// client is the benchmark's recording KVS client. Every operation it
// issues goes into a linearize.History, every write carries a value
// that is unique across the whole run (so the read-back and the
// linearizability check can both tell which write a read saw), and
// every failure is classified by status. Latency is measured from
// the send to the reply callback, in virtual time, for operations that
// got a definitive answer during the measured phase.
type client struct {
	eng     *sim.Engine
	route   func() sender
	hist    *linearize.History
	written map[uint64]*write // every put, by the value it wrote
	valSize int
	timeout sim.Duration // 0: no client timer

	nextVal uint64

	// Measured-phase accounting; ops issued while measuring is false
	// (preload, read-back) are recorded in the history only.
	measuring bool
	firstSend sim.Time
	lastDone  sim.Time
	lat       []sim.Duration
	attempted uint64
	puts      uint64
	completed uint64
	errors    uint64 // StatusError/Unavailable or an undecodable reply
	refused   uint64 // typed refusals: shed, fenced, denied
	timeouts  uint64 // no reply within the client timeout
	corrupt   uint64 // reads whose value no put of that key wrote

	// Read-back verdicts.
	ackedLost  uint64   // R1: acked puts the read-back value overwrote out of order
	unroutable []string // R3: keys with no definitive read-back answer
	pendingMax int
	inflight   int
}

// outcome is how one operation ended for the client that issued it.
type outcome struct {
	ok       bool   // a definitive answer: OK or NotFound
	found    bool   // a get returned a value
	val      uint64 // the version that value carries
	timedOut bool   // no reply within the client timeout
}

type opDone func(outcome)

// write is one put as the client saw it.
type write struct {
	key      string
	start    sim.Time
	end      sim.Time // first reply; meaningless until returned
	returned bool
	acked    bool
}

func newClient(eng *sim.Engine, route func() sender, valSize int, timeout sim.Duration) *client {
	return &client{
		eng: eng, route: route, hist: linearize.NewHistory(), written: map[uint64]*write{},
		valSize: valSize, timeout: timeout,
	}
}

// value encodes version v as a valSize-byte payload: the version in the
// first 8 bytes, then filler derived from it, so a read can be checked
// for integrity as well as for recency.
func (c *client) value(v uint64) []byte {
	b := make([]byte, c.valSize)
	binary.LittleEndian.PutUint64(b, v)
	for i := 8; i < len(b); i++ {
		b[i] = byte(v*31 + uint64(i))
	}
	return b
}

// decodeValue returns the version a read value carries, or ok=false if
// the bytes are not a value this client wrote.
func (c *client) decodeValue(b []byte) (uint64, bool) {
	if len(b) != c.valSize {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(b)
	for i := 8; i < len(b); i++ {
		if b[i] != byte(v*31+uint64(i)) {
			return 0, false
		}
	}
	return v, true
}

func (c *client) get(key string, done opDone) { c.do(linearize.Get, key, done) }
func (c *client) put(key string, done opDone) { c.do(linearize.Put, key, done) }

// do issues one operation. done runs exactly once: at the first reply,
// or at the client timeout if that comes first. A reply arriving after
// the timeout is still recorded in the history, because the client did
// observe it. With no timeout the op waits for its reply; one that
// never comes stalls the workload's drain, which fails the run.
func (c *client) do(kind linearize.OpKind, key string, done opDone) {
	now := c.eng.Now()
	measured := c.measuring
	var req []byte
	var hid int
	var w *write
	if kind == linearize.Put {
		c.nextVal++
		val := c.nextVal
		w = &write{key: key, start: now}
		c.written[val] = w
		hid = c.hist.Invoke(linearize.Put, key, val, now)
		req = kvs.EncodeRequest(kvs.Request{Op: kvs.OpPut, Key: key, Value: c.value(val)})
	} else {
		hid = c.hist.Invoke(linearize.Get, key, 0, now)
		req = kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: key})
	}
	if measured {
		if c.attempted == 0 {
			c.firstSend = now
		}
		c.attempted++
		if kind == linearize.Put {
			c.puts++
		}
		c.inflight++
		c.samplePending()
	}

	resolved, returned := false, false
	var tm *sim.Timer
	finish := func() {
		c.inflight--
		c.samplePending()
	}
	c.route()(req, func(b []byte) {
		if returned {
			return
		}
		returned = true
		out, ret, found := c.classify(b, key, w == nil, measured)
		c.hist.Return(hid, out, ret, c.eng.Now())
		if w != nil {
			w.end, w.returned, w.acked = c.eng.Now(), true, out == linearize.OK
		}
		if resolved {
			return
		}
		resolved = true
		tm.Stop()
		ok := out == linearize.OK || out == linearize.NotFound
		if measured {
			if ok {
				c.completed++
				c.lat = append(c.lat, c.eng.Now().Sub(now))
				c.lastDone = c.eng.Now()
			}
			finish()
		}
		done(outcome{ok: ok, found: found, val: ret})
	})
	if c.timeout == 0 {
		return
	}
	tm = c.eng.After(c.timeout, func() {
		if resolved {
			return
		}
		resolved = true
		if measured {
			c.timeouts++
			finish()
		}
		done(outcome{timedOut: true})
	})
}

// classify maps a store response onto the checker's outcome
// vocabulary. Typed refusals contractually did not execute (Fail);
// errors may have (Maybe).
// A get that returns a value no put of its key wrote counts as corrupt.
func (c *client) classify(b []byte, key string, isGet, measured bool) (out linearize.Outcome, ret uint64, found bool) {
	count := func(n *uint64) {
		if measured {
			*n++
		}
	}
	resp, err := kvs.DecodeResponse(b)
	if err != nil {
		count(&c.errors)
		return linearize.Maybe, 0, false
	}
	switch resp.Status {
	case kvs.StatusOK:
		if !isGet {
			return linearize.OK, 0, false
		}
		v, ok := c.decodeValue(resp.Value)
		if w := c.written[v]; !ok || w == nil || w.key != key {
			c.corrupt++
			count(&c.errors)
			return linearize.Maybe, 0, false
		}
		return linearize.OK, v, true
	case kvs.StatusNotFound:
		return linearize.NotFound, 0, false
	case kvs.StatusShed, kvs.StatusDenied, kvs.StatusFenced:
		count(&c.refused)
		return linearize.Fail, 0, false
	default:
		count(&c.errors)
		return linearize.Maybe, 0, false
	}
}

func (c *client) samplePending() {
	if p := c.eng.Pending(); p > c.pendingMax {
		c.pendingMax = p
	}
}

// resolved reports whether every measured operation has ended.
func (c *client) resolved() bool { return c.inflight == 0 }

// closedLoop runs op on every key in order, with at most workers ops
// in flight: each worker starts its next key when op calls next. It
// returns once every key is done.
func (c *client) closedLoop(keys []string, workers int, op func(key string, next func())) {
	i, active := 0, workers
	var step func()
	step = func() {
		if i >= len(keys) {
			active--
			return
		}
		i++
		op(keys[i-1], step)
	}
	for w := 0; w < workers; w++ {
		step()
	}
	runUntil(c.eng, func() bool { return active == 0 })
}

// preload writes every key once.
func (c *client) preload(keys []string, workers int) {
	c.closedLoop(keys, workers, func(key string, next func()) {
		c.put(key, func(outcome) { next() })
	})
}

// readback is the R1/R3 sweep: every key a put was issued for is read
// until it gets a definitive answer, retrying with a backoff. A key
// that never gets one is unroutable (R3). An acked put is lost (R1)
// when the value read back was written by a put that had already
// returned before the acked put was issued, or when the key reads back
// as absent: no order of the writes explains that read. Concurrent
// puts to one key may land in either order, so only this real-time
// precedence counts.
func (c *client) readback(workers int, backoff sim.Duration, attempts int) {
	perKey := map[string][]*write{}
	var keys []string
	for _, w := range c.written {
		if perKey[w.key] == nil {
			keys = append(keys, w.key)
		}
		perKey[w.key] = append(perKey[w.key], w)
	}
	sort.Strings(keys)
	judge := func(key string, o outcome) {
		var seen *write
		if o.found {
			seen = c.written[o.val]
		}
		for _, w := range perKey[key] {
			if w.acked && (seen == nil || seen.returned && seen.end < w.start) {
				c.ackedLost++
			}
		}
	}

	var read func(key string, try int, next func())
	read = func(key string, try int, next func()) {
		c.get(key, func(o outcome) {
			switch {
			case o.ok:
				judge(key, o)
				next()
			case try+1 < attempts:
				c.eng.After(backoff, func() { read(key, try+1, next) })
			default:
				c.unroutable = append(c.unroutable, key)
				next()
			}
		})
	}
	c.closedLoop(keys, workers, func(key string, next func()) { read(key, 0, next) })
}

// runUntil advances virtual time in 1ms slices until cond holds. The
// bound is far beyond any workload's length: reaching it is a benchmark
// bug, and the run stops there.
func runUntil(eng *sim.Engine, cond func() bool) {
	deadline := eng.Now().Add(60 * sim.Second)
	for !cond() {
		if eng.Now() >= deadline {
			panic("perfbench: workload did not drain within 60s of virtual time")
		}
		eng.RunFor(sim.Millisecond)
	}
}
