package main

import (
	"fmt"

	"nocpu/internal/core"
	"nocpu/internal/fabric"
	"nocpu/internal/faultinject"
	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
)

// rig is one constructed system under test: a single machine or a rack,
// with every machine's core.System listed so the layer counters can be
// summed over all of them.
type rig struct {
	eng     *sim.Engine
	systems []*core.System
	stores  []*kvs.Store
	cl      *fabric.Cluster    // nil for a single machine
	plane   *faultinject.Plane // nil without fault injection
	boot    func() error
	route   func() sender
}

// spec is one workload: how to build and boot its system, what the
// client preloads, and the measured phase. Every input derives from the
// workload seed; the same seed replays the same virtual-time run.
type spec struct {
	name string
	// cells is how many independent systems one repetition runs, each
	// with its own seed (workload seed × cells + index); their counts
	// and latencies are pooled.
	cells int
	// valSize is the size of the values a cell's puts write.
	valSize func(seed uint64) int
	// timeout is the client-side per-op timeout. The fault-free
	// workloads arm none, so the client adds no timer events to the
	// engine heap they measure.
	timeout sim.Duration
	// construct builds the machines; the rig's boot powers them on and
	// makes the store ready.
	construct func(seed uint64) (*rig, error)
	// keys is the key set the preload writes (nil: no preload).
	keys []string
	// measure drives the measured phase with c.measuring set and
	// returns once every measured op has ended.
	measure func(r *rig, c *client, seed uint64)
	// faults marks the workload that injects faults: failed ops, lost
	// acks, unroutable keys and L1 violations are its results rather
	// than a failed run.
	faults bool
	// settle is the virtual time allowed between the measured phase and
	// the read-back sweep (in-flight replication, fences, leases).
	settle sim.Duration
}

func specs() []spec {
	return []spec{
		machineKV("machine-kv", false),
		machineKV("machine-kv-mediated", true),
		rackGet(),
		rackFaults(),
	}
}

func lookup(name string) (spec, error) {
	var names []string
	for _, s := range specs() {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func fixed(n int) func(uint64) int { return func(uint64) int { return n } }

func keyList(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%05d", prefix, i)
	}
	return out
}

// machine-kv and machine-kv-mediated: one machine, open-loop Poisson
// arrivals in virtual time (the generator is never late), 70% get / 30%
// put of 512 B values over a preloaded key set, NIC value cache off, so
// every op crosses smartnic → virtio → interconnect DMA/IOMMU →
// smartssd FTL/flash → kvs. The mediated variant runs the same inputs
// on the centralized machine with the kernel-mediated data path, the
// paper's own baseline: centralos (syscall, interrupt, copy) and the
// bus sit on every op there, and on no op of the decentralized machine.
// 20k/s is below the flash knee (at 50k/s about half the ops fail with
// StatusError from kvs IOErrors) and high enough that the median falls
// inside the get latency distribution rather than on the edge between
// fast puts and queued gets, where it would swing from seed to seed.
const (
	kvKeys     = 1024
	kvValSize  = 512
	kvRate     = 20000 // ops per virtual second
	kvWindow   = 2 * sim.Second
	kvPutShare = 0.3
)

func machineKV(name string, mediated bool) spec {
	keys := keyList("kv", kvKeys)
	return spec{
		name: name, cells: 1, valSize: fixed(kvValSize),
		construct: func(seed uint64) (*rig, error) {
			flavor := core.Decentralized
			if mediated {
				flavor = core.Centralized
			}
			sys, err := core.New(core.Options{Flavor: flavor, Seed: seed, NoTrace: true})
			if err != nil {
				return nil, err
			}
			r := &rig{eng: sys.Eng, systems: []*core.System{sys}}
			r.boot = func() error {
				if err := sys.Boot(); err != nil {
					return err
				}
				if err := sys.CreateFile("kv.dat", nil); err != nil {
					return err
				}
				if sys.CPU != nil {
					sys.CPU.RegisterFile("kv.dat", core.FirstSSD)
				}
				store := sys.NewKVS(core.KVSOptions{App: 1, File: "kv.dat", QueueEntries: 128, Mediated: mediated})
				r.stores = []*kvs.Store{store}
				return sys.WaitReady(store)
			}
			deliver := func(p []byte, reply func([]byte)) { sys.NIC().Deliver(1, p, reply) }
			r.route = func() sender { return deliver }
			return r, nil
		},
		keys: keys,
		measure: func(r *rig, c *client, seed uint64) {
			rd := sim.NewRand(seed ^ 0x6b76)
			mean := sim.Duration(float64(sim.Second) / kvRate)
			stop := r.eng.Now().Add(kvWindow)
			var arrive func()
			arrive = func() {
				if r.eng.Now() >= stop {
					return
				}
				key := keys[rd.Intn(len(keys))]
				if rd.Float64() < kvPutShare {
					c.put(key, func(outcome) {})
				} else {
					c.get(key, func(outcome) {})
				}
				r.eng.After(rd.Exp(mean), arrive)
			}
			r.eng.After(rd.Exp(mean), arrive)
			runUntil(r.eng, func() bool { return r.eng.Now() >= stop && c.resolved() })
		},
	}
}

// rack-get: fabric, N=64, decentralized, NIC value cache on. A
// replicated preload writes one unique value per key, then 1024
// closed-loop Zipf(0.99) gets per machine, spread over E17's worker
// scaling (8 workers per machine, at most 512), run against the cached
// values, so flash is bypassed and the engine heap, fabric
// routing/network and per-machine construction dominate the host cost.
const (
	rgN         = 64
	rgKeys      = 64 * rgN
	rgOps       = 1024 * rgN
	rgWorkers   = 512
	rgValSize   = 64
	rgZipfTheta = 0.99
	rgCache     = 512
)

func rackGet() spec {
	keys := keyList("rg", rgKeys)
	return spec{
		name: "rack-get", cells: 1, valSize: fixed(rgValSize),
		construct: func(seed uint64) (*rig, error) {
			cl, err := fabric.New(fabric.Config{
				N: rgN, Flavor: fabric.FlavorDecentralized, Seed: seed,
				MachineMemory: rackMemory, CacheEntries: rgCache,
			})
			if err != nil {
				return nil, err
			}
			return rackRig(cl, nil, cl.LiveIDs), nil
		},
		keys: keys,
		measure: func(r *rig, c *client, seed uint64) {
			z := sim.NewZipf(sim.NewRand(seed^0x7267), len(keys), rgZipfTheta)
			gets := make([]string, rgOps)
			for i := range gets {
				gets[i] = keys[z.Next()]
			}
			c.closedLoop(gets, rgWorkers, func(key string, next func()) {
				c.get(key, func(outcome) { next() })
			})
		},
	}
}

// rackMemory sizes each rack machine's physical memory, as in E17/E21.
const rackMemory = 4 << 20

// rackRig wraps a fabric cluster; ids picks the machines client
// requests are spread over, round-robin.
func rackRig(cl *fabric.Cluster, plane *faultinject.Plane, ids func() []msg.DeviceID) *rig {
	r := &rig{eng: cl.Eng, cl: cl, plane: plane, boot: cl.Boot}
	for _, m := range cl.Machines {
		r.systems = append(r.systems, m.Sys)
	}
	rr := 0
	r.route = func() sender {
		live := ids()
		rr++
		return cl.Ingress(live[rr%len(live)])
	}
	return r
}
