package physmem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := New(PageSize + 1); err == nil {
		t.Error("non-multiple size accepted")
	}
	m, err := New(16 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 16*PageSize || m.Frames() != 16 {
		t.Errorf("size=%d frames=%d", m.Size(), m.Frames())
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := MustNew(4 * PageSize)
	src := []byte("the last cpu")
	if err := m.Write(100, src); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(100, len(src))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Errorf("got %q want %q", got, src)
	}
}

func TestOutOfBoundsRejected(t *testing.T) {
	m := MustNew(PageSize)
	if err := m.Write(PageSize-4, []byte("12345")); err == nil {
		t.Error("write across end accepted")
	}
	if _, err := m.Read(PageSize, 1); err == nil {
		t.Error("read at end accepted")
	}
	if _, err := m.ReadU64(PageSize - 7); err == nil {
		t.Error("u64 read across end accepted")
	}
	if err := m.ReadInto(2, make([]byte, PageSize)); err == nil {
		t.Error("ReadInto across end accepted")
	}
}

func TestScalarAccessors(t *testing.T) {
	m := MustNew(PageSize)
	if err := m.WriteU64(8, 0xdeadbeefcafef00d); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadU64(8)
	if err != nil || v != 0xdeadbeefcafef00d {
		t.Fatalf("u64 = %#x, err=%v", v, err)
	}
	if err := m.WriteU32(16, 0x12345678); err != nil {
		t.Fatal(err)
	}
	v32, _ := m.ReadU32(16)
	if v32 != 0x12345678 {
		t.Fatalf("u32 = %#x", v32)
	}
	if err := m.WriteU16(20, 0xbeef); err != nil {
		t.Fatal(err)
	}
	v16, _ := m.ReadU16(20)
	if v16 != 0xbeef {
		t.Fatalf("u16 = %#x", v16)
	}
	// Little-endian layout check.
	b, _ := m.Read(8, 2)
	if b[0] != 0x0d {
		t.Errorf("not little-endian: first byte %#x", b[0])
	}
}

func TestAllocZeroesMemory(t *testing.T) {
	m := MustNew(8 * PageSize)
	f, err := m.AllocFrames(1)
	if err != nil {
		t.Fatal(err)
	}
	_ = m.Write(f.Addr(), []byte{1, 2, 3})
	if err := m.FreeFrames(f, 1); err != nil {
		t.Fatal(err)
	}
	f2, err := m.AllocFrames(1)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := m.Read(f2.Addr(), 3)
	if !bytes.Equal(got, []byte{0, 0, 0}) {
		t.Errorf("reallocated frame not scrubbed: %v", got)
	}
}

func TestAllocExhaustion(t *testing.T) {
	m := MustNew(4 * PageSize)
	if _, err := m.AllocFrames(5); err == nil {
		t.Error("over-allocation accepted")
	}
	var frames []Frame
	for i := 0; i < 4; i++ {
		f, err := m.AllocFrames(1)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		frames = append(frames, f)
	}
	if _, err := m.AllocFrames(1); err == nil {
		t.Error("allocation from empty pool accepted")
	}
	for _, f := range frames {
		if err := m.FreeFrames(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	if m.FreeFramesCount() != 4 {
		t.Errorf("free count = %d, want 4", m.FreeFramesCount())
	}
}

func TestAllocNonPowerOfTwoExact(t *testing.T) {
	// A 7-frame allocation in an 8-frame memory must leave 1 frame usable
	// (exact accounting, not power-of-two rounding).
	m := MustNew(8 * PageSize)
	f, err := m.AllocFrames(7)
	if err != nil {
		t.Fatal(err)
	}
	if m.FreeFramesCount() != 1 {
		t.Fatalf("free frames = %d, want 1", m.FreeFramesCount())
	}
	if _, err := m.AllocFrames(1); err != nil {
		t.Errorf("could not allocate the remaining frame: %v", err)
	}
	if err := m.FreeFrames(f, 7); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFreeRejected(t *testing.T) {
	m := MustNew(4 * PageSize)
	f, _ := m.AllocFrames(2)
	if err := m.FreeFrames(f, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.FreeFrames(f, 2); err == nil {
		t.Error("double free accepted")
	}
	f2, _ := m.AllocFrames(2)
	if err := m.FreeFrames(f2, 1); err == nil {
		t.Error("partial free accepted")
	}
}

func TestCoalescingRestoresLargeBlocks(t *testing.T) {
	m := MustNew(16 * PageSize)
	var frames []Frame
	for i := 0; i < 16; i++ {
		f, err := m.AllocFrames(1)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	for _, f := range frames {
		if err := m.FreeFrames(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	// After coalescing, a 16-frame allocation must succeed again.
	if _, err := m.AllocFrames(16); err != nil {
		t.Errorf("coalescing failed: %v", err)
	}
}

func TestAllocDistinctNonOverlapping(t *testing.T) {
	m := MustNew(64 * PageSize)
	type span struct{ start, n uint64 }
	var spans []span
	for i := 0; i < 10; i++ {
		n := i%3 + 1
		f, err := m.AllocFrames(n)
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, span{uint64(f), uint64(n)})
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.start < b.start+b.n && b.start < a.start+a.n {
				t.Fatalf("allocations overlap: %+v %+v", a, b)
			}
		}
	}
}

// Property: any interleaving of allocs and frees never loses frames; after
// freeing everything the full memory is allocatable again.
func TestAllocFreeConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		m := MustNew(32 * PageSize)
		type alloc struct {
			f Frame
			n int
		}
		var live []alloc
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				n := int(op%4) + 1
				fr, err := m.AllocFrames(n)
				if err != nil {
					continue // exhausted is fine
				}
				live = append(live, alloc{fr, n})
			} else {
				i := int(op) % len(live)
				a := live[i]
				if err := m.FreeFrames(a.f, a.n); err != nil {
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			var liveSum uint64
			for _, a := range live {
				liveSum += uint64(a.n)
			}
			if m.FreeFramesCount()+liveSum != 32 {
				return false
			}
		}
		for _, a := range live {
			if err := m.FreeFrames(a.f, a.n); err != nil {
				return false
			}
		}
		_, err := m.AllocFrames(32)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAllocatedBytesAccounting(t *testing.T) {
	m := MustNew(8 * PageSize)
	f, _ := m.AllocFrames(3)
	if m.AllocatedBytes() != 3*PageSize {
		t.Errorf("AllocatedBytes = %d", m.AllocatedBytes())
	}
	_ = m.FreeFrames(f, 3)
	if m.AllocatedBytes() != 0 {
		t.Errorf("AllocatedBytes after free = %d", m.AllocatedBytes())
	}
}

func TestFrameAddrConversion(t *testing.T) {
	if Frame(3).Addr() != 3*PageSize {
		t.Error("Frame.Addr wrong")
	}
	if FrameOf(Addr(3*PageSize+17)) != 3 {
		t.Error("FrameOf wrong")
	}
}

func TestScalarAccessorsStraddleFrames(t *testing.T) {
	m := MustNew(4 * PageSize)
	// Each value starts one byte before a frame boundary, so its bytes
	// land in two frames.
	if err := m.WriteU64(2*PageSize-1, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	if v, err := m.ReadU64(2*PageSize - 1); err != nil || v != 0x0102030405060708 {
		t.Errorf("u64 = %#x, err=%v", v, err)
	}
	if err := m.WriteU32(PageSize-1, 0xa1b2c3d4); err != nil {
		t.Fatal(err)
	}
	if v, err := m.ReadU32(PageSize - 1); err != nil || v != 0xa1b2c3d4 {
		t.Errorf("u32 = %#x, err=%v", v, err)
	}
	if err := m.WriteU16(3*PageSize-1, 0xbeef); err != nil {
		t.Fatal(err)
	}
	if v, err := m.ReadU16(3*PageSize - 1); err != nil || v != 0xbeef {
		t.Errorf("u16 = %#x, err=%v", v, err)
	}
	// The low byte sits at the end of the first frame.
	if b, _ := m.Read(3*PageSize-1, 2); !bytes.Equal(b, []byte{0xef, 0xbe}) {
		t.Errorf("u16 bytes = %x", b)
	}
	// A value read across a written and an unwritten frame sees zeros in
	// the unwritten one.
	m2 := MustNew(2 * PageSize)
	_ = m2.Write(PageSize-2, []byte{0x11, 0x22})
	if v, _ := m2.ReadU32(PageSize - 2); v != 0x2211 {
		t.Errorf("u32 over unwritten frame = %#x", v)
	}
}

func TestMultiFrameReadWrite(t *testing.T) {
	m := MustNew(8 * PageSize)
	src := make([]byte, 3*PageSize+100)
	for i := range src {
		src[i] = byte(i*7 + 1)
	}
	addr := Addr(PageSize + 50)
	if err := m.Write(addr, src); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(addr, len(src))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("multi-frame read differs, err=%v", err)
	}
	into := make([]byte, len(src)+100)
	if err := m.ReadInto(addr-50, into); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(into[:50], make([]byte, 50)) || !bytes.Equal(into[50:50+len(src)], src) ||
		!bytes.Equal(into[50+len(src):], make([]byte, 50)) {
		t.Error("ReadInto across frames differs")
	}
	// The write touched frames 1..4 only.
	if got := m.BackedBytes(); got != 4*PageSize {
		t.Errorf("BackedBytes = %d, want %d", got, 4*PageSize)
	}
}

func TestUnwrittenFrameReadsZero(t *testing.T) {
	m := MustNew(4 * PageSize)
	got, err := m.Read(PageSize, PageSize)
	if err != nil || !bytes.Equal(got, make([]byte, PageSize)) {
		t.Errorf("unwritten frame not zero, err=%v", err)
	}
	if v, _ := m.ReadU64(2 * PageSize); v != 0 {
		t.Errorf("unwritten u64 = %#x", v)
	}
	if m.BackedBytes() != 0 {
		t.Errorf("reads backed %d bytes", m.BackedBytes())
	}
}

func TestZeroDropsWholeFramesAndClearsPartialRange(t *testing.T) {
	m := MustNew(4 * PageSize)
	ones := bytes.Repeat([]byte{0xff}, 4*PageSize)
	_ = m.Write(0, ones)
	if m.BackedBytes() != 4*PageSize {
		t.Fatalf("BackedBytes = %d", m.BackedBytes())
	}
	// Covers the tail of frame 0, all of frames 1 and 2, and the head of
	// frame 3.
	if err := m.Zero(PageSize-10, 2*PageSize+20); err != nil {
		t.Fatal(err)
	}
	if got := m.BackedBytes(); got != 2*PageSize {
		t.Errorf("BackedBytes after Zero = %d, want %d", got, 2*PageSize)
	}
	got, _ := m.Read(0, 4*PageSize)
	want := append([]byte(nil), ones...)
	clear(want[PageSize-10 : 3*PageSize+10])
	if !bytes.Equal(got, want) {
		t.Error("Zero cleared the wrong range")
	}
	// A partial Zero of a frame with no backing leaves it without.
	if err := m.Zero(PageSize+5, 10); err != nil {
		t.Fatal(err)
	}
	if got := m.BackedBytes(); got != 2*PageSize {
		t.Errorf("partial Zero of an unbacked frame backed it: %d", got)
	}
}

func TestReallocatedDirtyFrameReadsZero(t *testing.T) {
	m := MustNew(8 * PageSize)
	f, _ := m.AllocFrames(2)
	_ = m.Write(f.Addr(), bytes.Repeat([]byte{0xab}, 2*PageSize))
	if err := m.FreeFrames(f, 2); err != nil {
		t.Fatal(err)
	}
	f2, err := m.AllocFrames(2)
	if err != nil {
		t.Fatal(err)
	}
	if f2 != f {
		t.Fatalf("expected the freed frames back, got %d want %d", f2, f)
	}
	got, _ := m.Read(f2.Addr(), 2*PageSize)
	if !bytes.Equal(got, make([]byte, 2*PageSize)) {
		t.Error("reallocated frames not zero")
	}
	if m.BackedBytes() != 0 {
		t.Errorf("scrubbed frames still backed: %d bytes", m.BackedBytes())
	}
}
