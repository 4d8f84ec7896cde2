package main

import (
	"reflect"

	"nocpu/internal/bus"
	"nocpu/internal/centralos"
	"nocpu/internal/fabric"
	"nocpu/internal/faultinject"
	"nocpu/internal/interconnect"
	"nocpu/internal/iommu"
	"nocpu/internal/kvs"
	"nocpu/internal/memctrl"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
	"nocpu/internal/smartssd"
)

// counters is every public Stats() counter of a rig, summed over its
// machines, plus the engine's event count and clock. All fields are
// virtual-time outputs, so two runs of one seed read the same values.
type counters struct {
	Executed uint64
	Now      sim.Time
	Bus      bus.Stats
	DMA      interconnect.FabricStats
	IOMMU    iommu.Stats // NIC, SSD and memory-controller translation units
	FTL      smartssd.FTLStats
	Retry    smartnic.RetryStats
	CPU      centralos.Stats
	Memctrl  memctrl.Stats
	KVS      kvs.Stats
	Router   fabric.RouterStats
	Net      fabric.NetStats
	Faults   faultinject.Stats
}

// gauges are high-water marks since construction (metrics.Gauge keeps
// no history, so they cannot be taken as deltas), maxed over machines.
type gauges struct {
	RxDepth     int
	BusIngress  int
	KVSInflight int
	KernelIO    int
}

func (r *rig) allStores() []*kvs.Store {
	if r.cl == nil {
		return r.stores
	}
	var out []*kvs.Store
	for _, m := range r.cl.Machines {
		if m.Store != nil {
			out = append(out, m.Store)
		}
	}
	return out
}

func (r *rig) read() (counters, gauges) {
	c := counters{Executed: r.eng.Executed, Now: r.eng.Now()}
	var g gauges
	for _, s := range r.systems {
		sum(&c.Bus, s.Bus.Stats())
		sum(&c.DMA, s.Fabric.Stats())
		sum(&c.IOMMU, s.NIC().Device().IOMMU().Stats())
		sum(&c.IOMMU, s.SSD().Device().IOMMU().Stats())
		sum(&c.FTL, s.SSD().FTLStats())
		sum(&c.Retry, s.NIC().RetryStats())
		g.RxDepth = max(g.RxDepth, s.NIC().RxGauge().Max())
		g.BusIngress = max(g.BusIngress, s.Bus.IngressGauge().Max())
		if s.Memctrl != nil {
			sum(&c.IOMMU, s.Memctrl.Device().IOMMU().Stats())
			sum(&c.Memctrl, s.Memctrl.Stats())
		}
		if s.CPU != nil {
			sum(&c.CPU, s.CPU.Stats())
			g.KernelIO = max(g.KernelIO, s.CPU.IOGauge().Max())
		}
	}
	for _, st := range r.allStores() {
		sum(&c.KVS, st.Stats())
		g.KVSInflight = max(g.KVSInflight, st.InflightGauge().Max())
	}
	if r.cl != nil {
		c.Router = r.cl.RouterStatsSum()
		c.Net = r.cl.Network().Stats()
	}
	if r.plane != nil {
		c.Faults = r.plane.Stats()
	}
	return c, g
}

// sum adds every integer field of src into dst, recursively.
func sum[T any](dst *T, src T) { combine(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src), 1) }

// delta returns after-before, field by field.
func delta[T any](after, before T) T {
	out := after
	combine(reflect.ValueOf(&out).Elem(), reflect.ValueOf(before), -1)
	return out
}

func combine(dst, src reflect.Value, sign int64) {
	switch dst.Kind() {
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			combine(dst.Field(i), src.Field(i), sign)
		}
	case reflect.Uint64, reflect.Uint32, reflect.Uint:
		if sign > 0 {
			dst.SetUint(dst.Uint() + src.Uint())
		} else {
			dst.SetUint(dst.Uint() - src.Uint())
		}
	case reflect.Int64, reflect.Int32, reflect.Int:
		dst.SetInt(dst.Int() + sign*src.Int())
	}
}
