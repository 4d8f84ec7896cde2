package main

import (
	"fmt"

	"nocpu/internal/fabric"
	"nocpu/internal/faultinject"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
)

// rack-faults: fabric, N=8, decentralized, epoch leases on. In each
// rack an E21-style recorded workload — each worker cycles put, get,
// get over a shared key pool, so workers collide on keys — runs for
// rfWindow of virtual time while a fixed schedule applies a one-way
// link cut, then a fail-slow ×20 machine, then a machine kill. Then
// come the R1/R3 read-back and linearize.Check. It uses fabric and
// smartssd the other way round from rack-get (writes, replication,
// leases, failover and flash programs) and is the only workload that
// exercises faultinject and makes the checker costly. Timed-out ops
// stay Pending in the history (ambiguous writes); typed refusals are
// excluded; an op that fails is followed by the worker's next op after
// rfBackoff, as in E21.
//
// E21's workers alternate put and get. A put here takes about 0.9ms of
// virtual time and a get about 40µs, so with half the completed ops
// puts the median falls in the gap between the two and reads the far
// tail of the gets, which moved by a fifth from seed to seed. With two
// gets per put the median lies inside the get latencies and the 99th
// percentile inside the put latencies.
//
// A repetition runs rfCells independent racks and pools their results:
// one rack's tail latency depends too much on how the faults meet its
// lease rounds. Cell seed s (workload seed × rfCells + cell index) sets
// the fabric seed 0xBEEF^s, delays the workload start by
// (s mod 1000) × rfStartStep and makes the puts write 8 + (s mod 61)
// byte values, so no two seeds share a latency distribution.
//
// Known finding, reported through l1_bad_keys and not hidden: a key
// reads back an older value after a put that may or may not have
// happened, while machine 5 cannot reach machine 6. At the commit that
// added this benchmark, cell 1 of --seed 0 (fabric seed 0xBEEF^1,
// fault-plane seed 0xBEEF^1^0xF17, 37µs start delay, 9-byte values)
// shows it on key rf-036, with times from the workload start:
//
//	put 1449 (invoked at 202.86ms) returns an error at 204.97ms;
//	gets at 203.47ms and 205.04ms read 1449;
//	a get at 213.48ms then reads the older 1419.
//
// linearize.Check returns OK=false for that key. The R1 read-back check
// cannot see it because 1449 was never acked. The fail-slow and the
// kill come after the stale read, so they do not perturb it. Cell 3
// hits the same defect on another key, and every seed tried reports at
// least two bad keys. E21's own alternating workload shows it too: with
// fabric seed 0xBEEF, key rf-054 reads 1428 (a put that never returns)
// at 201.95ms and the older 1262 at 213.85ms. Reproduce with:
//
//	bash perfbench/run.sh --workload rack-faults --seed 0 --seconds 1 --trace 0
//
// which names the first bad key on its "l1" line. Fixing it is a
// robustness change that can then claim l1_bad_keys on this workload.
const (
	rfCells   = 8
	rfN       = 8
	rfWorkers = 8
	// rfGetsPerPut is how many gets follow each put in a worker's cycle.
	rfGetsPerPut = 2
	rfKeys       = 64
	rfValSize    = 8
	rfWindow     = 400 * sim.Millisecond
	rfTimeout    = 10 * sim.Millisecond
	rfBackoff    = 200 * sim.Microsecond
	// The start delay shifts the op stream and the fault schedule
	// against the fabric's lease (500µs) and heartbeat (1ms) rounds.
	rfStartStep = 37 * sim.Microsecond

	rfSlowMachine = msg.DeviceID(3)
	rfSlowFactor  = 20
	rfSlowAt      = 260 * sim.Millisecond
	rfSlowUntil   = 310 * sim.Millisecond
	rfCutSrc      = msg.DeviceID(5)
	rfCutDst      = msg.DeviceID(6)
	rfCutAt       = 200 * sim.Millisecond
	rfCutUntil    = 250 * sim.Millisecond
	rfKillMachine = msg.DeviceID(8)
	rfKillAt      = 330 * sim.Millisecond
)

func rackFaults() spec {
	return spec{
		name: "rack-faults", cells: rfCells, timeout: rfTimeout,
		valSize: func(seed uint64) int { return rfValSize + int(seed%61) },
		construct: func(seed uint64) (*rig, error) {
			fab := 0xBEEF ^ seed
			plane := faultinject.New(fab ^ 0xF17)
			cl, err := fabric.New(fabric.Config{
				N: rfN, Flavor: fabric.FlavorDecentralized, Seed: fab,
				MachineMemory: rackMemory, Leases: true, Net: fabric.NetConfig{Plane: plane},
			})
			if err != nil {
				return nil, err
			}
			return rackRig(cl, plane, func() []msg.DeviceID {
				if ids := cl.ServingIDs(); len(ids) > 0 {
					return ids
				}
				return cl.LiveIDs()
			}), nil
		},
		measure: func(r *rig, c *client, seed uint64) {
			eng := r.eng
			eng.RunFor(rfStartStep * sim.Duration(seed%1000))
			t0 := eng.Now()
			r.plane.SlowMachine(rfSlowMachine, rfSlowFactor, t0.Add(rfSlowAt), t0.Add(rfSlowUntil))
			r.plane.PartitionOneWay(rfCutSrc, rfCutDst, t0.Add(rfCutAt), t0.Add(rfCutUntil))
			eng.At(t0.Add(rfKillAt), func() { r.cl.Kill(rfKillMachine) })

			keys := make([]string, rfKeys)
			for i := range keys {
				keys[i] = fmt.Sprintf("rf-%03d", i)
			}
			stop := t0.Add(rfWindow)
			done := 0
			for w := 0; w < rfWorkers; w++ {
				keyIdx := w * 2 // offset the workers so collisions interleave
				// Even workers start on the put, odd ones on a get.
				pos := w % 2
				var issue func()
				issue = func() {
					if eng.Now() >= stop {
						done++
						return
					}
					key := keys[keyIdx%len(keys)]
					keyIdx++
					next := func(o outcome) {
						if o.ok || o.timedOut {
							issue()
							return
						}
						eng.After(rfBackoff, issue)
					}
					doPut := pos%(rfGetsPerPut+1) == 0
					pos++
					if doPut {
						c.put(key, next)
					} else {
						c.get(key, next)
					}
				}
				issue()
			}
			runUntil(eng, func() bool { return done == rfWorkers && c.resolved() })
		},
		faults: true,
		settle: fabric.DefaultLeaseDuration + fabric.DefaultFailTimeout + 2*sim.Millisecond,
	}
}
