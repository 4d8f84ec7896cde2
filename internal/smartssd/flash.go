// Package smartssd implements the smart SSD of §3: a storage device that
// exposes its files as bus services and serves file I/O to peer devices
// over VIRTIO queues, with no CPU anywhere in the path.
//
// The stack, bottom-up:
//
//   - flash: a NAND model with channels/dies, read/program/erase
//     latencies and per-channel serialization.
//   - FTL: a page-mapped flash translation layer with greedy garbage
//     collection and wear accounting.
//   - FS: a flat extent filesystem persisted through the FTL (superblock
//   - inode table), with full remount recovery.
//   - SSD: the self-managing device: a file service per volume
//     (discovery by "file:<name>" queries), a loader service (§2.1), and
//     the virtio endpoints serving connections.
package smartssd

import (
	"fmt"

	"nocpu/internal/sim"
)

// FlashGeometry describes the NAND array.
type FlashGeometry struct {
	Channels      int
	DiesPerChan   int
	BlocksPerDie  int
	PagesPerBlock int
	PageSize      int
}

// DefaultGeometry is a small, fast-to-simulate array: 4 ch x 2 dies x 64
// blocks x 64 pages x 4 KiB = 128 MiB raw.
var DefaultGeometry = FlashGeometry{
	Channels:      4,
	DiesPerChan:   2,
	BlocksPerDie:  64,
	PagesPerBlock: 64,
	PageSize:      4096,
}

// TotalBlocks returns the number of physical blocks.
func (g FlashGeometry) TotalBlocks() int {
	return g.Channels * g.DiesPerChan * g.BlocksPerDie
}

// TotalPages returns the number of physical pages.
func (g FlashGeometry) TotalPages() int { return g.TotalBlocks() * g.PagesPerBlock }

// FlashTiming holds NAND operation latencies (SLC-ish defaults).
type FlashTiming struct {
	Read    sim.Duration
	Program sim.Duration
	Erase   sim.Duration
}

// DefaultTiming is a fast-NAND calibration.
var DefaultTiming = FlashTiming{
	Read:    25 * sim.Microsecond,
	Program: 200 * sim.Microsecond,
	Erase:   1500 * sim.Microsecond,
}

// PPA is a physical page address: sequential page number across the
// array.
type PPA uint32

// blockOf returns the physical block index containing the page.
func (g FlashGeometry) blockOf(p PPA) int { return int(p) / g.PagesPerBlock }

// pageIn returns the page's index within its block.
func (g FlashGeometry) pageIn(p PPA) int { return int(p) % g.PagesPerBlock }

// channelOf returns the channel that owns the page's block. Blocks are
// striped across channels so sequential block numbers alternate channels.
func (g FlashGeometry) channelOf(block int) int { return block % g.Channels }

// flash is the NAND array. Each channel is a FIFO server: operations on
// the same channel serialize, operations on different channels overlap.
type flash struct {
	geo      FlashGeometry
	tim      FlashTiming
	eng      *sim.Engine
	channels []*sim.Server
	// blocks[b][i] holds page i of block b: nil when erased, discarded
	// once the FTL no longer maps it. A block's slots are made on its
	// first program, so an untouched block costs one nil slice.
	blocks [][][]byte
	erases []uint64 // per-block erase count (wear)
	// broken simulates a failed die/controller: every op errors.
	broken bool

	reads, programs, eraseOps uint64
}

func newFlash(eng *sim.Engine, geo FlashGeometry, tim FlashTiming) *flash {
	f := &flash{
		geo:    geo,
		tim:    tim,
		eng:    eng,
		blocks: make([][][]byte, geo.TotalBlocks()),
		erases: make([]uint64, geo.TotalBlocks()),
	}
	for i := 0; i < geo.Channels; i++ {
		f.channels = append(f.channels, sim.NewServer(eng))
	}
	return f
}

func (f *flash) chanFor(p PPA) *sim.Server {
	return f.channels[f.geo.channelOf(f.geo.blockOf(p))]
}

var errFlashBroken = fmt.Errorf("smartssd: flash failure")

// discarded is the contents of a page that is programmed but no longer
// mapped. It keeps the page non-erased without keeping its data alive.
var discarded = []byte{}

// page returns the contents of a page: nil if erased.
func (f *flash) page(p PPA) []byte {
	if blk := f.blocks[f.geo.blockOf(p)]; blk != nil {
		return blk[f.geo.pageIn(p)]
	}
	return nil
}

// discard drops the data of a programmed page the FTL no longer maps.
// The page stays non-erased until its block is erased.
func (f *flash) discard(p PPA) {
	if f.page(p) != nil {
		f.blocks[f.geo.blockOf(p)][f.geo.pageIn(p)] = discarded
	}
}

// read returns the page contents (zeros for an erased page). A page that
// is programmed when the read is submitted is taken then: its contents
// change only when its block is erased, and that erase queues behind this
// read on the channel, so a later discard cannot change what the read
// returns.
func (f *flash) read(p PPA, cb func([]byte, error)) {
	if int(p) >= f.geo.TotalPages() {
		cb(nil, fmt.Errorf("smartssd: read of ppa %d beyond array", p))
		return
	}
	f.reads++
	data := f.page(p)
	f.chanFor(p).Submit(f.tim.Read, func() {
		if f.broken {
			cb(nil, errFlashBroken)
			return
		}
		out := make([]byte, f.geo.PageSize)
		if data != nil {
			copy(out, data)
		} else {
			copy(out, f.page(p))
		}
		cb(out, nil)
	})
}

// program writes an erased page. Programming a programmed page is an FTL
// bug and returns an error.
func (f *flash) program(p PPA, data []byte, cb func(error)) {
	if int(p) >= f.geo.TotalPages() {
		cb(fmt.Errorf("smartssd: program of ppa %d beyond array", p))
		return
	}
	if len(data) > f.geo.PageSize {
		cb(fmt.Errorf("smartssd: program of %d bytes into %d-byte page", len(data), f.geo.PageSize))
		return
	}
	buf := make([]byte, f.geo.PageSize)
	copy(buf, data)
	f.programs++
	f.chanFor(p).Submit(f.tim.Program, func() {
		if f.broken {
			cb(errFlashBroken)
			return
		}
		b := f.geo.blockOf(p)
		if f.blocks[b] == nil {
			f.blocks[b] = make([][]byte, f.geo.PagesPerBlock)
		}
		slot := &f.blocks[b][f.geo.pageIn(p)]
		if *slot != nil {
			cb(fmt.Errorf("smartssd: program of non-erased ppa %d", p))
			return
		}
		*slot = buf
		cb(nil)
	})
}

// erase clears a whole block.
func (f *flash) erase(block int, cb func(error)) {
	if block < 0 || block >= f.geo.TotalBlocks() {
		cb(fmt.Errorf("smartssd: erase of block %d beyond array", block))
		return
	}
	f.eraseOps++
	f.channels[f.geo.channelOf(block)].Submit(f.tim.Erase, func() {
		if f.broken {
			cb(errFlashBroken)
			return
		}
		clear(f.blocks[block])
		f.erases[block]++
		cb(nil)
	})
}
