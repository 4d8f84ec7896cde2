// Package accel implements a generic compute accelerator — the third
// kind of self-managing device in the machine (§2.1 lists "FPGA blocks,
// GPU cores" among the resources devices may expose).
//
// The accelerator exposes transform services ("xform:<name>") consumed
// over the same VIRTIO queues as the SSD's file service. Its purpose in
// the reproduction is §2.2's sentence: "An application can be distributed
// across many devices, but what uniquely identifies it is its virtual
// address space" — an app on the smart NIC can hold one PASID whose
// mappings span the NIC, the SSD *and* this accelerator, with the bus
// mediating every grant (see examples/pipeline).
package accel

import (
	"fmt"
	"hash/crc32"
	"sort"
	"strings"

	"nocpu/internal/bus"
	"nocpu/internal/device"
	"nocpu/internal/interconnect"
	"nocpu/internal/iommu"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/trace"
	"nocpu/internal/virtio"
)

// Op identifies a transform.
type Op uint8

// Transform operations.
const (
	OpCRC32 Op = iota + 1 // resp: 4-byte little-endian IEEE CRC
	OpROT13               // resp: transformed bytes
	OpRLE                 // resp: run-length-encoded bytes
)

// opNames maps service names to ops.
var opNames = map[string]Op{
	"crc32": OpCRC32,
	"rot13": OpROT13,
	"rle":   OpRLE,
}

func (o Op) String() string {
	for n, op := range opNames {
		if op == o {
			return n
		}
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Status codes in transform responses.
const (
	StatusOK         = 0
	StatusBadRequest = 1
)

// Costs model the engine: a fixed setup plus per-byte processing.
type Costs struct {
	Setup      sim.Duration
	BytesPerNs float64 // processing rate
}

// DefaultCosts models a modest fixed-function engine (4 GB/s).
var DefaultCosts = Costs{Setup: 500 * sim.Nanosecond, BytesPerNs: 4}

// Config assembles an accelerator.
type Config struct {
	Device device.Config
	Costs  Costs
	// CellSize for transform queues.
	CellSize int
}

// engines is the number of parallel compute engines.
const engines = 2

// Stats counts accelerator activity.
type Stats struct {
	Ops            uint64
	BytesProcessed uint64
}

// Accel is the accelerator device.
type Accel struct {
	dev   *device.Device
	cfg   Config
	eng   *sim.Engine
	pool  *sim.Pool
	conns map[uint32]*conn
	next  uint32
	stats Stats
}

type conn struct {
	id     uint32
	app    msg.AppID
	client msg.DeviceID
	op     Op
	ep     *virtio.Endpoint
}

// New builds the accelerator and attaches it.
func New(eng *sim.Engine, b *bus.Bus, fab *interconnect.Fabric, tr *trace.Tracer, cfg Config) (*Accel, error) {
	if cfg.Costs.BytesPerNs == 0 {
		cfg.Costs = DefaultCosts
	}
	if cfg.CellSize == 0 {
		cfg.CellSize = 4096 + 16
	}
	cfg.Device.Role = msg.RoleAccelerator
	d, err := device.New(eng, b, fab, tr, cfg.Device)
	if err != nil {
		return nil, err
	}
	a := &Accel{
		dev:   d,
		cfg:   cfg,
		eng:   eng,
		pool:  sim.NewPool(eng, engines),
		conns: make(map[uint32]*conn),
	}
	d.AddService(&xformService{a: a})
	d.OnReset = func() { a.dropConns() }
	d.OnPeerFailed = a.onPeerFailed
	return a, nil
}

// Device exposes the chassis.
func (a *Accel) Device() *device.Device { return a.dev }

// Start powers the accelerator on.
func (a *Accel) Start() { a.dev.Start() }

// Stats returns a copy of the counters.
func (a *Accel) Stats() Stats { return a.stats }

func (a *Accel) dropConns() {
	for _, id := range a.sortedConnIDs() {
		if c := a.conns[id]; c.ep != nil {
			a.dev.Fabric().UnregisterDoorbell(c.ep.ReqBell)
		}
		delete(a.conns, id)
	}
}

// onPeerFailed drops connections whose client died; a revived client opens
// fresh connections rather than resuming these.
func (a *Accel) onPeerFailed(peer msg.DeviceID) {
	for _, id := range a.sortedConnIDs() {
		c := a.conns[id]
		if c.client != peer {
			continue
		}
		if c.ep != nil {
			a.dev.Fabric().UnregisterDoorbell(c.ep.ReqBell)
		}
		delete(a.conns, id)
	}
}

// sortedConnIDs iterates connections in id order for determinism.
func (a *Accel) sortedConnIDs() []uint32 {
	ids := make([]uint32, 0, len(a.conns))
	for id := range a.conns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// xformService answers "xform:<name>" queries and sessions.
type xformService struct {
	a *Accel
}

func (s *xformService) Name() string { return "xform" }

func (s *xformService) Match(query string) bool {
	name, ok := strings.CutPrefix(query, "xform:")
	if !ok {
		return false
	}
	_, known := opNames[name]
	return known
}

func (s *xformService) Open(src msg.DeviceID, req *msg.OpenReq) *msg.OpenResp {
	a := s.a
	name, ok := strings.CutPrefix(req.Service, "xform:")
	op, known := opNames[name]
	if !ok || !known {
		return &msg.OpenResp{Service: req.Service, App: req.App, OK: false, Reason: "unknown transform"}
	}
	a.next++
	id := a.next
	a.conns[id] = &conn{id: id, app: req.App, client: src, op: op}
	return &msg.OpenResp{
		Service: req.Service, App: req.App, OK: true, ConnID: id,
		SharedBytes: virtio.SharedBytes(128, a.cfg.CellSize),
	}
}

func (s *xformService) Connect(src msg.DeviceID, req *msg.ConnectReq) *msg.ConnectResp {
	a := s.a
	deny := func(reason string) *msg.ConnectResp {
		return &msg.ConnectResp{ConnID: req.ConnID, OK: false, Reason: reason}
	}
	c, ok := a.conns[req.ConnID]
	if !ok {
		return deny("no such connection")
	}
	if c.client != src || c.app != req.App {
		return deny("connection belongs to another client")
	}
	if c.ep != nil {
		return deny("already connected")
	}
	if req.RingEntries == 0 || req.DataBytes == 0 {
		return deny("malformed queue geometry")
	}
	lay := virtio.Layout{
		Base:     iommu.VirtAddr(req.RingVA),
		Entries:  req.RingEntries,
		DataVA:   iommu.VirtAddr(req.DataVA),
		CellSize: int(req.DataBytes) / int(req.RingEntries),
	}
	ep, err := virtio.NewEndpoint(a.dev.DMA(), iommu.PASID(req.App), lay,
		interconnect.DoorbellAddr(req.RespDoorbell), a.handlerFor(c))
	if err != nil {
		return deny(err.Error())
	}
	ep.OnError = func(err error) {
		a.dev.Send(c.client, &msg.ErrorNotify{App: c.app, Resource: "xform:" + c.op.String(), Code: 1, Detail: err.Error()})
		delete(a.conns, c.id)
	}
	c.ep = ep
	return &msg.ConnectResp{ConnID: req.ConnID, OK: true, Reason: fmt.Sprintf("reqbell=%d", ep.ReqBell)}
}

func (s *xformService) Close(src msg.DeviceID, req *msg.CloseReq) *msg.CloseResp {
	a := s.a
	c, ok := a.conns[req.ConnID]
	if !ok || c.client != src {
		return &msg.CloseResp{ConnID: req.ConnID, OK: false}
	}
	if c.ep != nil {
		a.dev.Fabric().UnregisterDoorbell(c.ep.ReqBell)
	}
	delete(a.conns, req.ConnID)
	return &msg.CloseResp{ConnID: req.ConnID, OK: true}
}

// handlerFor executes one transform request on a compute engine.
func (a *Accel) handlerFor(c *conn) virtio.Handler {
	return func(req []byte, done func([]byte)) {
		cost := a.cfg.Costs.Setup + sim.Duration(float64(len(req))/a.cfg.Costs.BytesPerNs)
		a.pool.Submit(cost, func() {
			out, ok := Transform(c.op, req)
			a.stats.Ops++
			a.stats.BytesProcessed += uint64(len(req))
			if !ok {
				done([]byte{StatusBadRequest})
				return
			}
			done(append([]byte{StatusOK}, out...))
		})
	}
}

// Transform applies op to data (pure function; also used by clients to
// verify results in tests).
func Transform(op Op, data []byte) ([]byte, bool) {
	switch op {
	case OpCRC32:
		s := crc32.ChecksumIEEE(data)
		return []byte{byte(s), byte(s >> 8), byte(s >> 16), byte(s >> 24)}, true
	case OpROT13:
		out := make([]byte, len(data))
		for i, b := range data {
			switch {
			case b >= 'a' && b <= 'z':
				out[i] = 'a' + (b-'a'+13)%26
			case b >= 'A' && b <= 'Z':
				out[i] = 'A' + (b-'A'+13)%26
			default:
				out[i] = b
			}
		}
		return out, true
	case OpRLE:
		return rleEncode(data), true
	}
	return nil, false
}

// rleEncode is a simple (count, byte) run-length encoding.
func rleEncode(data []byte) []byte {
	var out []byte
	i := 0
	for i < len(data) {
		b := data[i]
		run := 1
		for i+run < len(data) && data[i+run] == b && run < 255 {
			run++
		}
		out = append(out, byte(run), b)
		i += run
	}
	return out
}

// RLEDecode inverts rleEncode (used by consumers and tests).
func RLEDecode(enc []byte) ([]byte, error) {
	if len(enc)%2 != 0 {
		return nil, fmt.Errorf("accel: odd-length RLE stream")
	}
	var out []byte
	for i := 0; i < len(enc); i += 2 {
		run := int(enc[i])
		if run == 0 {
			return nil, fmt.Errorf("accel: zero-length run")
		}
		for j := 0; j < run; j++ {
			out = append(out, enc[i+1])
		}
	}
	return out, nil
}

// Client wraps a transform-service virtqueue with the protocol (pass a
// smartnic Connection's Queue).
type Client struct {
	Conn *virtio.Driver
}

// Do runs one transform round trip.
func (c *Client) Do(data []byte, done func(resp []byte, err error)) {
	err := c.Conn.Submit(data, func(resp []byte, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		if len(resp) < 1 || resp[0] != StatusOK {
			done(nil, fmt.Errorf("accel: transform failed"))
			return
		}
		done(resp[1:], nil)
	})
	if err != nil {
		done(nil, err)
	}
}
