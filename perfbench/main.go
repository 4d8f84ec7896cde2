// Command perfbench is the repository's benchmark. It runs one named
// workload of the emulator end to end, in one single-threaded process:
// it builds and boots the machines, preloads the store, drives a
// measured phase of client operations, reads every key back, and
// checks the recorded client history with linearize.Check. Everything
// is measured from outside the simulator: the benchmark times its own
// calls into core/fabric construction, Boot, the NIC/cluster ingress,
// Engine.RunFor and linearize.Check, and reads Engine.Executed,
// Engine.Pending, the public Stats() and gauge accessors, and a host
// CPU profile.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The workload is repeated with the same seed until --seconds of wall
// time have passed (at least minReps times); host-time metrics are the
// median over repetitions of the process's CPU time (see cpuTime), and
// every virtual-time output must repeat exactly. With --trace 0 the last line of standard output is a JSON
// object holding the end-to-end metrics; with --trace 1 it holds the
// per-layer metrics, taken from profiled repetitions that alternate
// with unprofiled ones so the profiling overhead is reported too.
// Lines before it are a human-readable report, including the sample
// counts behind each percentile and the run's behaviour digest.
//
// Seed 7919 is held out: tune nothing on it, and use it to confirm a
// claimed change on a seed no one tuned on.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nocpu/internal/linearize"
	"nocpu/internal/sim"
)

// minReps is the fewest repetitions a run makes, so a median exists
// even when one repetition outlasts --seconds.
const minReps = 3

// Read-back sweep: concurrent readers, retry backoff and attempts per
// key before the key counts as unroutable.
const (
	rbWorkers  = 32
	rbBackoff  = 500 * sim.Microsecond
	rbAttempts = 40
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "host seconds to repeat the workload for")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	sp, err := lookup(*name)
	if err != nil {
		return err
	}

	// The engine is single-threaded; one P keeps the collector on the
	// same thread instead of racing a second core that other tenants of
	// the host may hold.
	runtime.GOMAXPROCS(1)
	budget := time.Duration(*seconds) * time.Second
	start := time.Now()
	var plain, traced []*result
	prof := newHostProfile()
	for i := 0; ; i++ {
		var p *hostProfile
		if *trace == 1 && i%2 == 1 {
			p = prof
		}
		r, err := runRep(sp, *seed, p)
		if err != nil {
			return err
		}
		if p != nil {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		enough := len(plain) >= minReps
		if *trace == 1 {
			enough = len(plain) >= minReps && len(traced) >= minReps
		}
		if enough && time.Since(start) >= budget {
			break
		}
	}

	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "workload %s seed %d: %d unprofiled + %d profiled repetitions\n",
		sp.name, *seed, len(plain), len(traced))
	first := plain[0]
	correct := true
	for _, r := range append(plain[1:], traced...) {
		if r.digest != first.digest {
			correct = false
			fmt.Fprintf(w, "NONDETERMINISTIC: digest %s != %s\n", r.digest, first.digest)
		}
	}
	correct = correct && first.verdict(sp, w)
	first.report(w)
	for i, r := range append(plain, traced...) {
		fmt.Fprintf(w, "rep %d: setup %.4fs measure %.4fs wall %.4fs host_ops_per_s %.1f allocs %d\n",
			i, r.setup.Seconds(), r.measure.Seconds(), r.wall.Seconds(), hostOpsPerS(r), r.mallocs)
	}

	var ms []metric
	if *trace == 0 {
		for _, m := range hostSpeed(plain) {
			fmt.Fprintf(w, "  %-34s %16.6g %s (per-layer)\n", m.name, m.value, m.unit)
		}
		ms = endToEnd(plain)
	} else {
		ms = perLayer(plain, traced, prof)
	}
	out := map[string]map[string]any{}
	for _, m := range ms {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": first.attempted,
		"failed":    first.failed(),
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}

// result is one repetition of a workload: the sum over its cells.
type result struct {
	// Host CPU time of each phase.
	construct, boot, preload, measure, readback, check time.Duration
	setup, wall                                        time.Duration
	mallocs                                            uint64 // measured phase
	setupBytes                                         uint64 // allocated during setup

	// Virtual-time outputs.
	bootAt     sim.Time // first cell's clock when boot completed
	machines   int
	d          counters // measured-phase deltas
	g          gauges
	lat        []sim.Duration
	span       sim.Duration // first send to last definitive reply
	attempted  uint64
	puts       uint64
	completed  uint64
	errors     uint64
	refused    uint64
	timeouts   uint64
	corrupt    uint64
	pendingMax int
	lin        linearize.Result // Aborted and BadKey from every cell
	bad        int              // keys not linearizable or aborted
	ackedLost  uint64
	unroutable []string
	digest     string
}

// runRep runs the workload once: each of its cells builds a fresh
// system, in turn. A non-nil prof profiles the measured phases and
// accumulates the samples into it.
func runRep(sp spec, seed uint64, prof *hostProfile) (*result, error) {
	res := &result{}
	h := sha256.New()
	for i := 0; i < sp.cells; i++ {
		if err := res.runCell(sp, seed*uint64(sp.cells)+uint64(i), prof, h); err != nil {
			return nil, err
		}
	}
	res.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return res, nil
}

func (res *result) runCell(sp spec, seed uint64, prof *hostProfile, h io.Writer) error {
	// Start every cell from an empty heap whose free memory is back with
	// the OS, as in a fresh process: otherwise a machine's physical
	// memory comes either from fresh pages or from the last cell's
	// freed ones, which must be zeroed, and set-up time flips between
	// the two.
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	setupAlloc := ms.TotalAlloc

	t0 := cpuTime()
	r, err := sp.construct(seed)
	if err != nil {
		return fmt.Errorf("construct: %w", err)
	}
	t1 := cpuTime()
	if err := r.boot(); err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	t2 := cpuTime()
	if res.machines == 0 {
		res.bootAt, res.machines = r.eng.Now(), len(r.systems)
	}
	bootAt := r.eng.Now()
	c := newClient(r.eng, r.route, sp.valSize(seed), sp.timeout)
	if sp.keys != nil {
		c.preload(sp.keys, 8)
	}
	t3 := cpuTime()

	// Collect set-up garbage now, so its cost is not charged to the
	// measured phase.
	runtime.GC()
	runtime.ReadMemStats(&ms)
	res.setupBytes += ms.TotalAlloc - setupAlloc
	mallocs := ms.Mallocs
	before, _ := r.read()
	var buf bytes.Buffer
	if prof != nil {
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return err
		}
	}
	t4 := cpuTime()
	c.measuring = true
	sp.measure(r, c, seed)
	c.measuring = false
	t5 := cpuTime()
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.add(buf.Bytes()); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms)
	res.mallocs += ms.Mallocs - mallocs
	after, g := r.read()

	t6 := cpuTime()
	r.eng.RunFor(sp.settle)
	c.readback(rbWorkers, rbBackoff, rbAttempts)
	t7 := cpuTime()
	lin := linearize.Check(c.hist)
	bad := l1Bad(c.hist, lin)
	t8 := cpuTime()
	end, _ := r.read()

	res.construct += t1 - t0
	res.boot += t2 - t1
	res.preload += t3 - t2
	res.measure += t5 - t4
	res.readback += t7 - t6
	res.check += t8 - t7
	res.setup += t3 - t0
	res.wall += t8 - t0

	d := delta(after, before)
	sum(&res.d, d)
	res.g = gauges{max(res.g.RxDepth, g.RxDepth), max(res.g.BusIngress, g.BusIngress),
		max(res.g.KVSInflight, g.KVSInflight), max(res.g.KernelIO, g.KernelIO)}
	res.lat = append(res.lat, c.lat...)
	res.span += c.lastDone.Sub(c.firstSend)
	res.attempted += c.attempted
	res.puts += c.puts
	res.completed += c.completed
	res.errors += c.errors
	res.refused += c.refused
	res.timeouts += c.timeouts
	res.corrupt += c.corrupt
	res.pendingMax = max(res.pendingMax, c.pendingMax)
	res.lin.Keys += lin.Keys
	res.lin.Required += lin.Required
	res.lin.Optional += lin.Optional
	res.lin.Excluded += lin.Excluded
	res.lin.Aborted = append(res.lin.Aborted, lin.Aborted...)
	if !lin.OK && res.lin.BadKey == "" {
		res.lin.BadKey = lin.BadKey
	}
	res.lin.OK = res.lin.BadKey == ""
	res.bad += bad
	res.ackedLost += c.ackedLost
	res.unroutable = append(res.unroutable, c.unroutable...)

	// The digest covers every virtual-time output of the cell: the
	// counters at each phase boundary (which include Engine.Executed and
	// the virtual clock), every measured latency in completion order, the
	// client's outcome counts and the correctness verdicts. A change that
	// only speeds up the simulator leaves it byte-identical.
	fmt.Fprintf(h, "cell %d boot %d\nbefore %+v\nafter %+v\nend %+v\ngauges %+v\n", seed, bootAt, before, after, end, g)
	fmt.Fprintf(h, "client %d %d %d %d %d %d %d %d %d %d %d\n", c.attempted, c.puts, c.completed, c.errors,
		c.refused, c.timeouts, c.corrupt, c.pendingMax, c.firstSend, c.lastDone, c.hist.Len())
	for _, d := range c.lat {
		fmt.Fprintf(h, "%d ", d)
	}
	fmt.Fprintf(h, "\nlin %+v bad %d\nlost %d unroutable %v\n", lin, bad, c.ackedLost, c.unroutable)
	return nil
}

// cpuTime is the process's CPU time, user plus system, over all its
// threads. Host time is measured in it rather than by the wall clock:
// on a shared virtual machine the wall clock also counts the time the
// hypervisor runs other tenants, which doubled single repetitions. The
// process runs one P (see run), so its CPU time is close to the wall
// time the work takes on an unshared host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// l1Bad counts keys the checker could not linearize or gave up on.
// Check names only the first failing key, so when it fails every key is
// checked again on its own.
func l1Bad(hist *linearize.History, lin linearize.Result) int {
	bad := len(lin.Aborted)
	if lin.OK {
		return bad
	}
	perKey := map[string]*linearize.History{}
	var keys []string
	for _, op := range hist.Ops() {
		h := perKey[op.Key]
		if h == nil {
			h = linearize.NewHistory()
			perKey[op.Key] = h
			keys = append(keys, op.Key)
		}
		id := h.Invoke(op.Kind, op.Key, op.Arg, op.Start)
		if op.Outcome != linearize.Pending {
			h.Return(id, op.Outcome, op.Ret, op.End)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if res := linearize.Check(perKey[k]); !res.OK && len(res.Aborted) == 0 {
			bad++
		}
	}
	return bad
}

func (r *result) failed() uint64 { return r.errors + r.refused + r.timeouts }

func (r *result) failedFrac() float64 {
	return ratio(float64(r.failed()), float64(r.attempted))
}

// percentile returns the q-quantile (nearest rank) of the measured
// latencies.
func (r *result) percentile(q float64) sim.Duration {
	if len(r.lat) == 0 {
		return 0
	}
	s := append([]sim.Duration(nil), r.lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// verdict prints the correctness findings and reports whether the run
// is correct. Every workload must repeat exactly, return only values
// the client wrote, and get a definitive verdict from the checker. A
// fault-free workload must also be L1-clean, lose no acked write, route
// every key and fail no op; the fault workload reports those as its
// results (see faults.go for the finding it reports).
func (r *result) verdict(sp spec, w io.Writer) bool {
	l1 := "clean"
	if !r.lin.OK {
		l1 = "FAIL first bad key " + r.lin.BadKey
	}
	fmt.Fprintf(w, "l1 %s (bad keys %d, aborted %d; %d required + %d optional ops, %d excluded)\n",
		l1, r.bad, len(r.lin.Aborted), r.lin.Required, r.lin.Optional, r.lin.Excluded)
	fmt.Fprintf(w, "read-back acked_lost %d unroutable %d %v; corrupt reads %d\n",
		r.ackedLost, len(r.unroutable), r.unroutable, r.corrupt)
	ok := r.corrupt == 0 && len(r.lin.Aborted) == 0 && r.completed > 0
	if !sp.faults {
		ok = ok && r.bad == 0 && r.ackedLost == 0 && len(r.unroutable) == 0 && r.failed() == 0
	}
	return ok
}

func (r *result) report(w io.Writer) {
	fmt.Fprintf(w, "digest %s\n", r.digest)
	fmt.Fprintf(w, "ops attempted %d completed %d errors %d refused %d timeouts %d (puts %d)\n",
		r.attempted, r.completed, r.errors, r.refused, r.timeouts, r.puts)
	n := len(r.lat)
	fmt.Fprintf(w, "sim_p50_us %.3f (n=%d, %d above)  sim_p99_us %.3f (n=%d, %d above)\n",
		r.percentile(0.50).Micros(), n, n/2, r.percentile(0.99).Micros(), n, n/100)
	fmt.Fprintf(w, "correctness ops_failed_frac %.6g l1_bad_keys %d acked_lost %d keys_unroutable %d\n",
		r.failedFrac(), r.bad, r.ackedLost, len(r.unroutable))
}

type metric struct {
	name  string
	value float64
	unit  string
}

func median(rs []*result, f func(*result) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func hostOpsPerS(r *result) float64 { return ratio(float64(r.completed), r.measure.Seconds()) }

// endToEnd is the untraced run's result: the metrics BENCHMARK.json
// bounds. Virtual-time ones repeat exactly for a seed; set-up time is
// the median over repetitions.
func endToEnd(rs []*result) []metric {
	r := rs[0]
	return []metric{
		{"setup_s", median(rs, func(r *result) float64 { return r.setup.Seconds() }), "s"},
		{"allocs_per_op", median(rs, func(r *result) float64 { return ratio(float64(r.mallocs), float64(r.completed)) }), "count"},
		{"peak_rss_mb", peakRSSMB(), "MB"},
		{"sim_ops_per_s", ratio(float64(r.completed), float64(r.span)/float64(sim.Second)), "1/s"},
		{"sim_p50_us", r.percentile(0.50).Micros(), "us"},
		{"sim_p99_us", r.percentile(0.99).Micros(), "us"},
	}
}

// hostSpeed is the simulator's speed on the host, median over
// repetitions. The vCPUs of a shared host drift in speed by up to 1.7×
// over minutes, which moves these from run to run by more than any
// bound a regression gate could use, so BENCHMARK.json records them
// as per-layer metrics of the traced run; the untraced run prints them
// too, above its result line.
func hostSpeed(rs []*result) []metric {
	return []metric{
		{"wall_s", median(rs, func(r *result) float64 { return r.wall.Seconds() }), "s"},
		{"host_ops_per_s", median(rs, hostOpsPerS), "1/s"},
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
