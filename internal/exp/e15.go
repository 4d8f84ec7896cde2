package exp

import (
	"fmt"

	"nocpu/internal/chaos"
	"nocpu/internal/core"
	"nocpu/internal/faultinject"
	"nocpu/internal/kvs"
	"nocpu/internal/linearize"
	"nocpu/internal/metrics"
	"nocpu/internal/sim"
)

// E15 is the crash-restart-rejoin experiment (§4 "error handling"): a
// seeded chaos schedule kills the NIC, the SSD and the control-plane
// device (memory controller or CPU kernel) — including one coordinated
// double-failure — in the middle of a KVS write workload, on both
// machine architectures. The client history must be linearizable (L1:
// no acked write lost, no op applied twice), every crash must be
// recovered within a bounded virtual-time window (G3), and the bus
// incarnation counters show the rejoin protocol fencing the old life's
// messages.

// E15 tuning. The client-side op timeout exceeds the worst-case
// in-system lifetime of a write (the mediated retrier exhausts its
// budget in under 100ms of virtual time), so a put that times out died
// with a crashed device rather than sitting in a queue.
const (
	e15Workers   = 4
	e15KeysPer   = 8
	e15Warmup    = 5 * sim.Millisecond
	e15Window    = 45 * sim.Millisecond
	e15MinGap    = 8 * sim.Millisecond
	e15Tail      = 10 * sim.Millisecond // workload continues past the window
	e15OpTimeout = 200 * sim.Millisecond
	e15ProbeGap  = 100 * sim.Microsecond
	// e15ErrBackoff paces a worker that got an error reply (store mid-
	// recovery answers Unavailable instantly; hammering it just inflates
	// the attempt count).
	e15ErrBackoff = 200 * sim.Microsecond
	// e15G3Bound is the recovery-window bound asserted by the chaos tier
	// tests: watchdog detection + reset + remount + reconnect + log scan,
	// with slack for back-to-back failures, is well under this.
	e15G3Bound = 50 * sim.Millisecond
)

// e15Sched names one crash campaign shape.
type e15Sched struct {
	name    string
	targets []string // of "nic", "ssd", "ctl"
	crashes int
	doubles int
}

var e15Scheds = []e15Sched{
	{"ssd x3", []string{"ssd"}, 3, 0},
	{"nic x3", []string{"nic"}, 3, 0},
	{"ctl x3", []string{"ctl"}, 3, 0},
	{"mixed + double", []string{"nic", "ssd", "ctl"}, 4, 1},
}

// e15Targets resolves target names to crash actions on a booted machine.
// "ctl" is the control-plane device: the memory controller on the
// decentralized machine, the CPU kernel on the centralized ones.
func e15Targets(kind machineKind, sys *core.System, names []string) []chaos.Target {
	out := make([]chaos.Target, len(names))
	for i, name := range names {
		t := chaos.Target{Name: name}
		switch name {
		case "nic":
			t.Crash = sys.NIC().Device().Kill
		case "ssd":
			t.Crash = sys.SSD().Kill
		case "ctl":
			if kind == kindDecentralized {
				t.Name = "memctrl"
				t.Crash = sys.Memctrl.Device().Kill
			} else {
				t.Name = "kernel"
				t.Crash = sys.CPU.Kill
			}
		default:
			panic("exp: unknown chaos target " + name)
		}
		out[i] = t
	}
	return out
}

// e15Driver adds the machine-level parts of the campaign to the shared
// client: a recovery prober and an asynchronous read-back sweep, both
// driving the NIC directly.
type e15Driver struct {
	rig *kvsRig
	c   *campaignClient
}

// probe polls a warm key with short gets while a crash window is open,
// so recovery is timed by first service restoration rather than by the
// write workers' long op timeouts.
func (d *e15Driver) probe() {
	eng := d.rig.sys.Eng
	var tick func()
	tick = func() {
		if eng.Now() >= d.c.stopAt && len(d.c.pending) == 0 {
			return
		}
		if len(d.c.pending) > 0 {
			req := kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: keyName(0)})
			d.c.send(req, func(b []byte) {
				if resp, err := kvs.DecodeResponse(b); err == nil && resp.Status == kvs.StatusOK {
					d.c.progress()
				}
			})
		}
		eng.After(e15ProbeGap, tick)
	}
	tick()
}

// readback sweeps every key the workload touched into the history,
// retrying while the store answers ambiguously or not at all.
func (d *e15Driver) readback() {
	eng := d.rig.sys.Eng
	keys := d.c.keys()
	done := false
	i := 0
	var next func()
	next = func() {
		if i == len(keys) {
			done = true
			return
		}
		resolved := false
		var tm *sim.Timer
		retry := func() {
			if resolved {
				return
			}
			resolved = true
			eng.After(500*sim.Microsecond, next)
		}
		d.c.call(linearize.Get, keys[i], 0, func(out linearize.Outcome) {
			if out != linearize.OK && out != linearize.NotFound {
				retry() // store mid-recovery; ask again
				return
			}
			if resolved {
				return
			}
			resolved = true
			if tm != nil {
				tm.Stop()
			}
			if out == linearize.OK {
				d.c.progress()
			}
			i++
			next()
		})
		tm = eng.After(2*sim.Millisecond, retry)
	}
	next()
	d.rig.drain(&done)
}

// e15Row is one (machine, schedule) cell's outcome.
type e15Row struct {
	lin       linearize.Result
	crashes   int
	puts      uint64
	acked     uint64
	tmouts    uint64
	errs      uint64
	recovered []sim.Duration
	maxRecov  sim.Duration
	rejoins   uint64
	fenced    uint64
}

// e15Run executes one chaos campaign on a fresh machine. Exercised with
// race detection by the chaos test tier (make chaos).
func e15Run(kind machineKind, sc e15Sched, seed uint64) e15Row {
	const watchdog = 500 * sim.Microsecond
	rig := newKVSRig(kind, seed, func(o *core.Options) {
		o.Watchdog = watchdog
		if kind != kindDecentralized {
			// The kernel joins the lifecycle protocol: it heartbeats like
			// any device and reboots (with a cold, flushed kernel state)
			// when the bus resets it.
			o.CPU.HeartbeatEvery = watchdog / 4
			o.CPU.ResetDelay = 150 * sim.Microsecond
		}
	}, nil)
	eng := rig.sys.Eng

	plan := chaos.Plan{
		Seed:    seed,
		Start:   eng.Now().Add(e15Warmup),
		Window:  e15Window,
		Crashes: sc.crashes,
		MinGap:  e15MinGap,
		Doubles: sc.doubles,
		Targets: e15Targets(kind, rig.sys, sc.targets),
	}
	sched := plan.MustCompile()

	send := func(req []byte, reply func([]byte)) { rig.sys.NIC().Deliver(rig.store.AppID(), req, reply) }
	d := &e15Driver{rig: rig, c: newCampaignClient(eng, send, e15OpTimeout, e15ErrBackoff)}
	d.c.stopAt = plan.Start.Add(e15Window + e15Tail)
	plane := faultinject.New(seed)
	sched.Arm(eng, plane, func(ev chaos.Event) { d.c.crashed(ev.At) })
	for w := 0; w < e15Workers; w++ {
		keys := make([]string, e15KeysPer)
		for i := range keys {
			keys[i] = keyName(w*e15KeysPer + i)
		}
		d.c.writer(keys)
	}
	d.probe()
	d.c.wait(e15Workers)
	d.readback()

	bs := rig.sys.Bus.Stats()
	return e15Row{
		lin:       linearize.Check(d.c.hist),
		crashes:   sc.crashes,
		puts:      d.c.puts,
		acked:     d.c.acked(),
		tmouts:    d.c.tmouts,
		errs:      d.c.errs,
		recovered: d.c.recovered,
		maxRecov:  d.c.maxRecovery(),
		rejoins:   bs.Rejoins,
		fenced:    bs.DeadSenderDropped,
	}
}

// E15CrashRecovery runs the chaos campaigns over both control planes.
func E15CrashRecovery() *Result {
	res := &Result{ID: "E15", Title: "Crash-restart-rejoin: chaos schedules over both control planes"}
	tb := metrics.NewTable(
		fmt.Sprintf("seeded crash schedules mid-KVS-write-workload (%d workers x %d keys, %v window)",
			e15Workers, e15Workers*e15KeysPer, e15Window),
		"machine", "schedule", "crashes", "puts", "acked", "timeouts", "L1 history",
		"recovered", "max recovery", "rejoins", "fenced msgs")
	for _, kind := range []machineKind{kindDecentralized, kindCentralDirect, kindCentralMediated} {
		for i, sc := range e15Scheds {
			row := e15Run(kind, sc, 0xE15+uint64(i))
			recovered := fmt.Sprintf("%d/%d", len(row.recovered), row.crashes)
			tb.AddRow(kind.label(), sc.name, row.crashes, row.puts, row.acked,
				row.tmouts, l1Verdict(row.lin), recovered, row.maxRecov, row.rejoins, row.fenced)
		}
	}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"L1 is the Wing–Gong linearizability check over the client history, workload puts plus the final read-back sweep: every put writes a fresh value, so a lost acked write, a resurrected stale write or a corrupt read has no sequential explanation; timed-out and errored puts may take effect or not",
		"recovery is timed from the crash instant to the next acknowledged operation (a short-timeout get prober runs while any crash window is open)",
		"control-plane crashes separate the architectures: the decentralized data plane never notices a dead memory controller, while the kernel-mediated column pays a full outage per kernel reboot",
		"fenced msgs counts old-incarnation traffic the bus dropped after a crashed device rejoined with a bumped incarnation (DeadSenderDropped)")
	return res
}
