// Package physmem simulates the machine's physical memory: a
// byte-addressable store of 4 KiB frames plus a buddy allocator handing
// them out. The store is sparse: a frame costs host memory only once it
// has been written, and a frame that was never written reads as zeros.
//
// Every byte that moves through the emulated machine — virtqueue rings,
// file data staged by the smart SSD, IOMMU page tables — lives in a Memory
// and is reached by physical address, exactly as it would be on the real
// interconnect. There is no back door: devices read and write physical
// memory only through the DMA engine, which translates via their IOMMU.
package physmem

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the frame size. The IOMMU uses the same granule.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Addr is a physical byte address.
type Addr uint64

// Frame is a physical frame number (Addr >> PageShift).
type Frame uint64

// Addr returns the base physical address of the frame.
func (f Frame) Addr() Addr { return Addr(f) << PageShift }

// FrameOf returns the frame containing the address.
func FrameOf(a Addr) Frame { return Frame(a >> PageShift) }

// Memory is the physical memory plus its frame allocator. It is sparse:
// pages[f] backs frame f, and a nil entry is a frame that holds all zeros.
// A frame gets its backing on first write and gives it back when Zero
// covers the whole frame, so host memory tracks only what the simulation
// has written.
type Memory struct {
	pages      []*[PageSize]byte
	size       uint64
	buddy      *buddy
	allocBytes uint64
}

// New creates a memory of the given size, which must be a positive
// multiple of PageSize.
func New(size uint64) (*Memory, error) {
	if size == 0 || size%PageSize != 0 {
		return nil, fmt.Errorf("physmem: size %d is not a positive multiple of %d", size, PageSize)
	}
	return &Memory{
		pages: make([]*[PageSize]byte, size/PageSize),
		size:  size,
		buddy: newBuddy(size / PageSize),
	}, nil
}

// MustNew is New for static configuration; it panics on a bad size.
func MustNew(size uint64) *Memory {
	m, err := New(size)
	if err != nil {
		panic(err)
	}
	return m
}

// Size returns the total memory size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// Frames returns the total number of frames.
func (m *Memory) Frames() uint64 { return m.size / PageSize }

// AllocatedBytes returns the bytes currently handed out by the allocator.
func (m *Memory) AllocatedBytes() uint64 { return m.allocBytes }

// BackedBytes returns the bytes of frames that currently have backing,
// that is, the host memory the simulated memory costs.
func (m *Memory) BackedBytes() uint64 {
	var n uint64
	for _, p := range m.pages {
		if p != nil {
			n += PageSize
		}
	}
	return n
}

func (m *Memory) check(addr Addr, n int) error {
	if n < 0 || uint64(addr) > m.size || uint64(addr)+uint64(n) > m.size {
		return fmt.Errorf("physmem: access [%#x, %#x) outside memory of %d bytes", addr, uint64(addr)+uint64(n), m.size)
	}
	return nil
}

// pageOff splits an address into its frame and the offset within it.
func pageOff(addr Addr) (Frame, int) { return FrameOf(addr), int(addr & (PageSize - 1)) }

// readAt copies the checked range at addr into dst, frame by frame; a
// frame with no backing reads as zeros.
func (m *Memory) readAt(addr Addr, dst []byte) {
	for len(dst) > 0 {
		f, off := pageOff(addr)
		n := min(len(dst), PageSize-off)
		if p := m.pages[f]; p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += Addr(n)
	}
}

// writeAt copies src into the checked range at addr, backing each frame
// it touches on first write.
func (m *Memory) writeAt(addr Addr, src []byte) {
	for len(src) > 0 {
		f, off := pageOff(addr)
		p := m.pages[f]
		if p == nil {
			p = new([PageSize]byte)
			m.pages[f] = p
		}
		n := copy(p[off:], src)
		src = src[n:]
		addr += Addr(n)
	}
}

// Read copies n bytes at addr into a fresh slice.
func (m *Memory) Read(addr Addr, n int) ([]byte, error) {
	if err := m.check(addr, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	m.readAt(addr, out)
	return out, nil
}

// ReadInto copies len(dst) bytes at addr into dst.
func (m *Memory) ReadInto(addr Addr, dst []byte) error {
	if err := m.check(addr, len(dst)); err != nil {
		return err
	}
	m.readAt(addr, dst)
	return nil
}

// Write copies src into memory at addr.
func (m *Memory) Write(addr Addr, src []byte) error {
	if err := m.check(addr, len(src)); err != nil {
		return err
	}
	m.writeAt(addr, src)
	return nil
}

// ReadU64 reads a little-endian uint64 at addr (used for PTEs and ring
// indices; the emulated machine is little-endian throughout).
func (m *Memory) ReadU64(addr Addr) (uint64, error) {
	if err := m.check(addr, 8); err != nil {
		return 0, err
	}
	var b [8]byte
	m.readAt(addr, b[:])
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian uint64 at addr.
func (m *Memory) WriteU64(addr Addr, v uint64) error {
	if err := m.check(addr, 8); err != nil {
		return err
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.writeAt(addr, b[:])
	return nil
}

// ReadU32 reads a little-endian uint32 at addr.
func (m *Memory) ReadU32(addr Addr) (uint32, error) {
	if err := m.check(addr, 4); err != nil {
		return 0, err
	}
	var b [4]byte
	m.readAt(addr, b[:])
	return binary.LittleEndian.Uint32(b[:]), nil
}

// WriteU32 writes a little-endian uint32 at addr.
func (m *Memory) WriteU32(addr Addr, v uint32) error {
	if err := m.check(addr, 4); err != nil {
		return err
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.writeAt(addr, b[:])
	return nil
}

// ReadU16 reads a little-endian uint16 at addr.
func (m *Memory) ReadU16(addr Addr) (uint16, error) {
	if err := m.check(addr, 2); err != nil {
		return 0, err
	}
	var b [2]byte
	m.readAt(addr, b[:])
	return binary.LittleEndian.Uint16(b[:]), nil
}

// WriteU16 writes a little-endian uint16 at addr.
func (m *Memory) WriteU16(addr Addr, v uint16) error {
	if err := m.check(addr, 2); err != nil {
		return err
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	m.writeAt(addr, b[:])
	return nil
}

// Zero clears n bytes at addr. A frame the range covers whole loses its
// backing; a partly covered frame is cleared only if it has backing.
func (m *Memory) Zero(addr Addr, n int) error {
	if err := m.check(addr, n); err != nil {
		return err
	}
	for n > 0 {
		f, off := pageOff(addr)
		c := min(n, PageSize-off)
		if c == PageSize {
			m.pages[f] = nil
		} else if p := m.pages[f]; p != nil {
			clear(p[off : off+c])
		}
		n -= c
		addr += Addr(c)
	}
	return nil
}

// AllocFrames allocates n contiguous frames (rounded up to a power of two
// internally by the buddy allocator, but exactly n are accounted and the
// remainder returned to the free lists). It returns the first frame.
func (m *Memory) AllocFrames(n int) (Frame, error) {
	if n <= 0 {
		return 0, fmt.Errorf("physmem: alloc of %d frames", n)
	}
	f, err := m.buddy.alloc(uint64(n))
	if err != nil {
		return 0, err
	}
	m.allocBytes += uint64(n) * PageSize
	// Fresh allocations are zeroed, as a memory controller would scrub
	// frames between owners to prevent data leakage.
	_ = m.Zero(f.Addr(), n*PageSize)
	return f, nil
}

// FreeFrames releases n frames starting at f. The (f, n) pair must match a
// previous allocation exactly.
func (m *Memory) FreeFrames(f Frame, n int) error {
	if err := m.buddy.release(f, uint64(n)); err != nil {
		return err
	}
	m.allocBytes -= uint64(n) * PageSize
	return nil
}

// FreeFramesCount reports how many frames remain allocatable.
func (m *Memory) FreeFramesCount() uint64 { return m.buddy.freeFrames }
