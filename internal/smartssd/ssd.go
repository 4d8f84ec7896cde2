package smartssd

import (
	"fmt"
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

// Config assembles an SSD.
type Config struct {
	Device   device.Config
	Geometry FlashGeometry
	FS       FSConfig
	// CellSize is the virtqueue buffer cell the file service uses.
	CellSize int
	// Tokens maps file names to required open tokens (§3 step 3 and the
	// §4 access-control discussion). Files absent from the map are open
	// access.
	Tokens map[string]uint64
	// LoaderToken authenticates LoadReq image uploads (§2.1, §4).
	LoaderToken uint64
	// NotifyBatch sets used-ring notification batching on the file
	// service's endpoints (E9 ablation; 0/1 = notify per completion).
	NotifyBatch int
}

// opRatio is the FTL over-provisioning fraction.
const opRatio = 0.125

// conn is one open file-service connection (one service instance; §2.1
// requires per-instance contexts and isolation between them).
type conn struct {
	id      uint32
	app     msg.AppID
	client  msg.DeviceID
	service string
	file    *File
	ep      *virtio.Endpoint
	// estab is the ConnectReq that built ep; an identical retransmission
	// (lost ConnectResp) is answered OK again instead of being rejected as
	// "already connected".
	estab msg.ConnectReq
}

// SSD is the smart SSD device.
type SSD struct {
	dev   *device.Device
	cfg   Config
	flash *flash
	ftl   *ftl
	fs    *FS

	ready    bool
	booted   bool // formatted once
	conns    map[uint32]*conn
	nextConn uint32
	// closed remembers torn-down connections (id → closer) so a retried
	// CloseReq whose first response was lost gets OK, not "no such
	// connection".
	closed map[uint32]msg.DeviceID

	// ServedOps counts file-protocol requests completed.
	ServedOps uint64
}

// New builds the SSD and attaches it to bus and fabric.
func New(eng *sim.Engine, b *bus.Bus, fab *interconnect.Fabric, tr *trace.Tracer, cfg Config) (*SSD, error) {
	if cfg.Geometry.Channels == 0 {
		cfg.Geometry = DefaultGeometry
	}
	if cfg.CellSize == 0 {
		cfg.CellSize = 4096 + RespHeaderBytes + ReqHeaderBytes
	}
	cfg.Device.Role = msg.RoleStorage
	d, err := device.New(eng, b, fab, tr, cfg.Device)
	if err != nil {
		return nil, err
	}
	s := &SSD{
		dev:    d,
		cfg:    cfg,
		conns:  make(map[uint32]*conn),
		closed: make(map[uint32]msg.DeviceID),
	}
	s.flash = newFlash(eng, cfg.Geometry, DefaultTiming)
	s.ftl = newFTL(eng, s.flash, opRatio)
	s.fs = newFS(s.ftl, cfg.FS)

	d.AddService(&fileService{ssd: s})
	d.Handle(msg.KindLoadReq, s.onLoad)
	d.OnAlive = s.onAlive
	d.OnReset = s.onReset
	d.OnPeerFailed = s.onPeerFailed
	return s, nil
}

// Device exposes the chassis.
func (s *SSD) Device() *device.Device { return s.dev }

// FS exposes the filesystem for test setup and the core assembler
// (pre-creating the KVS data file).
func (s *SSD) FS() *FS { return s.fs }

// FTLStats exposes translation-layer counters.
func (s *SSD) FTLStats() FTLStats { return s.ftl.Stats() }

// Wear exposes the NAND erase-count distribution.
func (s *SSD) Wear() WearStats { return s.ftl.Wear() }

// Ready reports whether the volume is mounted and serving.
func (s *SSD) Ready() bool { return s.ready }

// Start powers the SSD on.
func (s *SSD) Start() { s.dev.Start() }

// Kill simulates a hard failure (fault-injection): the device stops
// responding on bus and data plane, and the volume is unavailable until
// a reset remounts it.
func (s *SSD) Kill() {
	s.dev.Kill()
	s.ready = false
	s.dropConns()
}

// BreakFlash makes every subsequent flash operation fail (§4's "resource
// suffers a fatal error" scenario).
func (s *SSD) BreakFlash() { s.flash.broken = true }

// RepairFlash undoes BreakFlash.
func (s *SSD) RepairFlash() { s.flash.broken = false }

func (s *SSD) dropConns() {
	for _, id := range s.sortedConnIDs() {
		if c := s.conns[id]; c.ep != nil {
			s.dev.Fabric().UnregisterDoorbell(c.ep.ReqBell)
		}
		delete(s.conns, id)
	}
}

// sortedConnIDs iterates connections in id order for determinism.
func (s *SSD) sortedConnIDs() []uint32 {
	ids := make([]uint32, 0, len(s.conns))
	for id := range s.conns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// onAlive runs at first boot (format+mount) and after every recovery
// (mount only).
func (s *SSD) onAlive() {
	if s.ready {
		return
	}
	finish := func(err error) {
		if err != nil {
			s.dev.Tracer().Record(s.dev.Engine().Now(), s.dev.Name(), "", "fs-error", err.Error())
			return
		}
		s.ready = true
		s.dev.Tracer().Record(s.dev.Engine().Now(), s.dev.Name(), "", "fs-ready", "")
	}
	if !s.booted {
		s.booted = true
		s.fs.Format(func(err error) {
			if err != nil {
				finish(err)
				return
			}
			s.fs.Mount(finish)
		})
		return
	}
	s.fs.Mount(finish)
}

// onReset drops volatile state; flash contents survive, and onAlive will
// remount.
func (s *SSD) onReset() {
	s.ready = false
	s.dropConns()
}

// onPeerFailed drops connections whose client died (DeviceFailed
// broadcast): their requests will never be reaped, and a revived client
// opens fresh connections rather than resuming these.
func (s *SSD) onPeerFailed(peer msg.DeviceID) {
	for _, id := range s.sortedConnIDs() {
		c := s.conns[id]
		if c.client != peer {
			continue
		}
		if c.ep != nil {
			s.dev.Fabric().UnregisterDoorbell(c.ep.ReqBell)
		}
		delete(s.conns, id)
	}
}

// onLoad services the loader: authenticated image upload into the
// filesystem (§2.1: "devices that store their applications internally
// must expose a loader service").
func (s *SSD) onLoad(env msg.Envelope) {
	m := env.Msg.(*msg.LoadReq)
	deny := func(reason string) {
		s.dev.Send(env.Src, &msg.LoadResp{Image: m.Image, OK: false, Reason: reason})
	}
	if !s.ready {
		deny("volume not ready")
		return
	}
	if s.cfg.LoaderToken != 0 && m.Token != s.cfg.LoaderToken {
		deny("authentication failed")
		return
	}
	write := func(f *File) {
		f.Truncate(func(err error) {
			if err != nil {
				deny(err.Error())
				return
			}
			f.WriteAt(0, m.Data, func(err error) {
				if err != nil {
					deny(err.Error())
					return
				}
				s.dev.Send(env.Src, &msg.LoadResp{Image: m.Image, OK: true})
			})
		})
	}
	if f, ok := s.fs.Lookup(m.Image); ok {
		write(f)
		return
	}
	s.fs.Create(m.Image, func(f *File, err error) {
		if err != nil {
			deny(err.Error())
			return
		}
		write(f)
	})
}

// fileService exposes every file on the volume as "file:<name>".
type fileService struct {
	ssd *SSD
}

func (fs *fileService) Name() string { return "file" }

// Match answers discovery queries and session names. Two name forms:
// "file:<name>" matches files present on the volume; "file+create:<name>"
// matches any storage volume and creates the file on open if missing.
func (fs *fileService) Match(query string) bool {
	if !fs.ssd.ready {
		return false
	}
	if _, ok := strings.CutPrefix(query, "file+create:"); ok {
		return true
	}
	name, ok := strings.CutPrefix(query, "file:")
	if !ok {
		return false
	}
	_, exists := fs.ssd.fs.Lookup(name)
	return exists
}

func (fs *fileService) Open(src msg.DeviceID, req *msg.OpenReq) *msg.OpenResp {
	s := fs.ssd
	deny := func(reason string) *msg.OpenResp {
		return &msg.OpenResp{Service: req.Service, App: req.App, OK: false, Reason: reason}
	}
	createRequested := false
	name, ok := strings.CutPrefix(req.Service, "file:")
	if !ok {
		name, ok = strings.CutPrefix(req.Service, "file+create:")
		createRequested = ok
	}
	if !ok {
		return deny("malformed service name")
	}
	if !s.ready {
		return deny("volume not ready")
	}
	if want, guarded := s.cfg.Tokens[name]; guarded && want != req.Token {
		return deny("authentication failed")
	}
	// Idempotent replay: the opener retrying because an OpenResp was lost
	// gets its existing, not-yet-connected instance back rather than a
	// second one it would leak.
	for _, id := range s.sortedConnIDs() {
		if c := s.conns[id]; c.client == src && c.app == req.App && c.service == req.Service && c.ep == nil {
			shared := virtio.SharedBytes(128, s.cfg.CellSize)
			return &msg.OpenResp{Service: req.Service, App: req.App, OK: true, ConnID: c.id, SharedBytes: shared}
		}
	}
	f, exists := s.fs.Lookup(name)
	if !exists {
		if !createRequested {
			return deny("no such file")
		}
		// Create synchronously in metadata; persistence trails behind.
		done := false
		var cerr error
		s.fs.Create(name, func(nf *File, err error) { f, cerr, done = nf, err, true })
		_ = done
		if cerr != nil {
			return deny(cerr.Error())
		}
		if f == nil {
			// Creation persists asynchronously; look the inode up now.
			f, _ = s.fs.Lookup(name)
			if f == nil {
				return deny("create failed")
			}
		}
	}
	s.nextConn++
	id := s.nextConn
	s.conns[id] = &conn{id: id, app: req.App, client: src, service: req.Service, file: f}
	// Quote the shared memory for a default-geometry queue; the requester
	// may choose a smaller ring in ConnectReq.
	shared := virtio.SharedBytes(128, s.cfg.CellSize)
	return &msg.OpenResp{Service: req.Service, App: req.App, OK: true, ConnID: id, SharedBytes: shared}
}

func (fs *fileService) Connect(src msg.DeviceID, req *msg.ConnectReq) *msg.ConnectResp {
	s := fs.ssd
	deny := func(reason string) *msg.ConnectResp {
		return &msg.ConnectResp{ConnID: req.ConnID, OK: false, Reason: reason}
	}
	c, ok := s.conns[req.ConnID]
	if !ok {
		return deny("no such connection")
	}
	// Isolation: only the opener may connect, and only for its own app.
	if c.client != src || c.app != req.App {
		return deny("connection belongs to another client")
	}
	if c.ep != nil {
		if *req == c.estab {
			// Retransmitted ConnectReq (lost response): same verdict.
			return &msg.ConnectResp{ConnID: req.ConnID, OK: true, Reason: fmt.Sprintf("reqbell=%d", c.ep.ReqBell)}
		}
		return deny("already connected")
	}
	if req.RingEntries == 0 || req.DataBytes == 0 {
		return deny("malformed queue geometry")
	}
	cell := int(req.DataBytes) / int(req.RingEntries)
	lay := virtio.Layout{
		Base:     iommu.VirtAddr(req.RingVA),
		Entries:  req.RingEntries,
		DataVA:   iommu.VirtAddr(req.DataVA),
		CellSize: cell,
	}
	ep, err := virtio.NewEndpoint(s.dev.DMA(), iommu.PASID(req.App), lay,
		interconnect.DoorbellAddr(req.RespDoorbell), s.handlerFor(c))
	if err != nil {
		return deny(err.Error())
	}
	if s.cfg.NotifyBatch > 1 {
		ep.NotifyBatch = s.cfg.NotifyBatch
	}
	ep.OnError = func(err error) {
		// Transport failure (e.g. revoked grant): notify the consumer per
		// §4 and drop the connection.
		s.dev.Send(c.client, &msg.ErrorNotify{App: c.app, Resource: "file:" + c.file.Name(), Code: 1, Detail: err.Error()})
		delete(s.conns, c.id)
	}
	c.ep = ep
	c.estab = *req
	// Tell the requester which doorbell to kick.
	return &msg.ConnectResp{ConnID: req.ConnID, OK: true, Reason: fmt.Sprintf("reqbell=%d", ep.ReqBell)}
}

func (fs *fileService) Close(src msg.DeviceID, req *msg.CloseReq) *msg.CloseResp {
	s := fs.ssd
	c, ok := s.conns[req.ConnID]
	if !ok || c.client != src {
		if closer, was := s.closed[req.ConnID]; was && closer == src {
			// Retransmitted CloseReq (lost response): already done.
			return &msg.CloseResp{ConnID: req.ConnID, OK: true}
		}
		return &msg.CloseResp{ConnID: req.ConnID, OK: false}
	}
	if c.ep != nil {
		s.dev.Fabric().UnregisterDoorbell(c.ep.ReqBell)
	}
	delete(s.conns, req.ConnID)
	s.closed[req.ConnID] = src
	return &msg.CloseResp{ConnID: req.ConnID, OK: true}
}

// handlerFor builds the virtio request handler bound to one connection.
func (s *SSD) handlerFor(c *conn) virtio.Handler {
	return func(reqBytes []byte, done func([]byte)) {
		req, err := DecodeFileReq(reqBytes)
		if err != nil {
			done(EncodeFileResp(FileResp{Status: StatusBadRequest}))
			return
		}
		finish := func(r FileResp) {
			s.ServedOps++
			done(EncodeFileResp(r))
		}
		switch req.Op {
		case OpRead:
			c.file.ReadAt(req.Off, int(req.Len), func(data []byte, err error) {
				if err != nil {
					finish(FileResp{Status: StatusIOError})
					return
				}
				finish(FileResp{Status: StatusOK, Size: c.file.Size(), Data: data})
			})
		case OpWrite:
			c.file.WriteAt(req.Off, req.Data, func(err error) {
				if err != nil {
					finish(FileResp{Status: StatusIOError})
					return
				}
				finish(FileResp{Status: StatusOK, Size: c.file.Size()})
			})
		case OpAppend:
			c.file.Append(req.Data, func(err error) {
				if err != nil {
					finish(FileResp{Status: StatusIOError})
					return
				}
				finish(FileResp{Status: StatusOK, Size: c.file.Size()})
			})
		case OpStat:
			finish(FileResp{Status: StatusOK, Size: c.file.Size()})
		case OpTruncate:
			c.file.Truncate(func(err error) {
				if err != nil {
					finish(FileResp{Status: StatusIOError})
					return
				}
				finish(FileResp{Status: StatusOK})
			})
		case OpRename:
			newName := string(req.Data)
			c.file.Rename(newName, func(err error) {
				if err != nil {
					finish(FileResp{Status: StatusIOError})
					return
				}
				finish(FileResp{Status: StatusOK})
			})
		default:
			finish(FileResp{Status: StatusBadRequest})
		}
	}
}
