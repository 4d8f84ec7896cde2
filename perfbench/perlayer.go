package main

import "nocpu/internal/sim"

// profileModules are the nocpu/internal modules the benchmark links, in
// the order their host-time shares are printed; "perfbench" is the
// benchmark's own client code and "other" the samples with neither
// (scheduler, background GC).
var profileModules = []string{
	"accel", "bus", "centralos", "chaos", "core", "device", "fabric", "faultinject",
	"interconnect", "iommu", "kvs", "linearize", "memctrl", "metrics", "msg", "physmem",
	"sim", "smartnic", "smartssd", "tenant", "trace", "virtio", "perfbench", "other",
}

// perLayer computes the traced run's metrics. Counts are deltas over
// the measured phase and "per op" means per completed measured op;
// *_max are high-water marks since construction. Host times are
// medians over the profiled repetitions, except hostSpeed's, which come
// from the unprofiled ones; the overhead compares the two.
func perLayer(plain, traced []*result, prof *hostProfile) []metric {
	r := traced[0]
	d := r.d
	ops := float64(r.completed)
	per := func(v float64) float64 { return ratio(v, ops) }
	span := float64(r.span)
	med := func(f func(*result) float64) float64 { return median(traced, f) }
	tracedOps := med(hostOpsPerS)

	ms := []metric{
		{"sim.events_per_op", per(float64(d.Executed)), "count"},
		{"sim.host_ns_per_event", med(func(r *result) float64 {
			return ratio(float64(r.measure.Nanoseconds()), float64(r.d.Executed))
		}), "ns"},
		{"sim.allocs_per_event", med(func(r *result) float64 {
			return ratio(float64(r.mallocs), float64(r.d.Executed))
		}), "count"},
		{"sim.pending_max", float64(r.pendingMax), "count"},

		{"core.new_s", med(func(r *result) float64 { return r.construct.Seconds() }), "s"},
		{"core.boot_s", med(func(r *result) float64 { return r.boot.Seconds() }), "s"},
		{"core.boot_sim_us", sim.Duration(r.bootAt).Micros(), "us"},
		{"core.setup_alloc_mb", float64(r.setupBytes) / (1 << 20), "MB"},

		{"smartnic.rx_depth_max", float64(r.g.RxDepth), "count"},
		{"smartnic.retries", float64(d.Retry.Retries), "count"},

		{"kvs.cache_hit_frac", ratio(float64(d.KVS.CacheHits), float64(d.KVS.Gets)), "ratio"},
		{"kvs.inflight_max", float64(r.g.KVSInflight), "count"},
		{"kvs.io_errors", float64(d.KVS.IOErrors), "count"},
		{"kvs.shed", float64(d.KVS.Shed), "count"},

		{"interconnect.dmas_per_op", per(float64(d.DMA.DMAs)), "count"},
		{"interconnect.bytes_per_op", per(float64(d.DMA.BytesMoved)), "bytes"},
		{"interconnect.dma_busy_frac", ratio(float64(d.DMA.TotalDMATime), span*float64(r.machines)), "ratio"},
		{"interconnect.dma_wait_us_per_op", per(d.DMA.TotalWaitTime.Micros()), "us"},

		{"iommu.translations_per_op", per(float64(d.IOMMU.Translations)), "count"},
		{"iommu.tlb_hit_frac", ratio(float64(d.IOMMU.TLBHits), float64(d.IOMMU.Translations)), "ratio"},
		{"iommu.walk_reads_per_op", per(float64(d.IOMMU.WalkReads)), "count"},

		{"smartssd.flash_reads_per_op", per(float64(d.FTL.HostReads)), "count"},
		{"smartssd.flash_writes_per_op", per(float64(d.FTL.HostWrites)), "count"},
		{"smartssd.gc_pages_moved", float64(d.FTL.GCPagesMoved), "count"},

		{"bus.msgs_per_op", per(float64(d.Bus.Messages)), "count"},
		{"bus.ingress_max", float64(r.g.BusIngress), "count"},

		{"centralos.syscalls_per_op", per(float64(d.CPU.Syscalls)), "count"},
		{"centralos.interrupts_per_op", per(float64(d.CPU.Interrupts)), "count"},
		{"centralos.copy_bytes_per_op", per(float64(d.CPU.BytesCopied)), "bytes"},
		{"centralos.io_depth_max", float64(r.g.KernelIO), "count"},

		{"fabric.remote_frac", ratio(float64(d.Router.Remote), float64(d.Router.Local+d.Router.Remote)), "ratio"},
		{"fabric.frames_per_op", per(float64(d.Net.Frames)), "count"},
		{"fabric.net_bytes_per_op", per(float64(d.Net.Bytes)), "bytes"},
		{"fabric.applies_per_put", ratio(float64(d.Router.Applies), float64(r.puts)), "count"},
		{"fabric.timeouts", float64(d.Router.Timeouts), "count"},
		{"fabric.lease_fenced", float64(d.Router.LeaseFenced), "count"},
		{"fabric.view_changes", float64(d.Router.ViewChanges), "count"},
		{"fabric.resyncs", float64(d.Router.Resyncs), "count"},

		{"faultinject.dropped", float64(d.Faults.Dropped), "count"},
		{"faultinject.delayed", float64(d.Faults.Delayed), "count"},
		{"faultinject.slowed", float64(d.Faults.Slowed), "count"},

		{"linearize.check_s", med(func(r *result) float64 { return r.check.Seconds() }), "s"},
		{"linearize.ops", float64(r.lin.Required), "count"},
		{"linearize.optional", float64(r.lin.Optional), "count"},
		{"linearize.aborted_keys", float64(len(r.lin.Aborted)), "count"},

		{"phase.preload_s", med(func(r *result) float64 { return r.preload.Seconds() }), "s"},
		{"phase.measure_s", med(func(r *result) float64 { return r.measure.Seconds() }), "s"},
		{"phase.readback_s", med(func(r *result) float64 { return r.readback.Seconds() }), "s"},

		{"profile.host_ops_per_s", tracedOps, "1/s"},
		{"profile.overhead_frac", 1 - ratio(tracedOps, median(plain, hostOpsPerS)), "ratio"},

		{"ops_failed_frac", r.failedFrac(), "ratio"},
		{"l1_bad_keys", float64(r.bad), "count"},
		{"acked_lost", float64(r.ackedLost), "count"},
		{"keys_unroutable", float64(len(r.unroutable)), "count"},
	}
	ms = append(ms, hostSpeed(plain)...)

	for _, m := range profileModules {
		ms = append(ms, metric{m + ".host_self_frac", prof.frac(prof.module[m]), "ratio"})
	}
	ms = append(ms,
		metric{"runtime.malloc_frac", prof.frac(prof.malloc), "ratio"},
		metric{"runtime.gc_frac", prof.frac(prof.gc), "ratio"},
	)
	return ms
}
