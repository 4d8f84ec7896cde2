package core

import (
	"fmt"
	"testing"

	"nocpu/internal/kvs"
	"nocpu/internal/physmem"
)

// backedAfterPutBurst is the host memory, in bytes, that a default
// 128 MiB decentralized machine's physical memory holds after booting
// and serving the put burst below. Physical memory is backed on first
// write, so this counts only the frames the simulation wrote: rings,
// page tables and staged data. The count is deterministic and does not
// depend on the host. A change that makes machine memory dense again
// (or that writes many more frames) fails this test. After an
// intentional change to what the machine writes, set the constant to
// the value the failure message reports.
const backedAfterPutBurst = 11 * physmem.PageSize

func TestMachineMemoryIsSparse(t *testing.T) {
	s := bootSystem(t, Options{Flavor: Decentralized})
	if s.Mem.Size() != 128<<20 {
		t.Fatalf("default memory is %d bytes, want 128 MiB", s.Mem.Size())
	}
	if err := s.CreateFile("kv.dat", nil); err != nil {
		t.Fatal(err)
	}
	store := s.NewKVS(KVSOptions{App: 1, File: "kv.dat"})
	if err := s.WaitReady(store); err != nil {
		t.Fatal(err)
	}
	value := make([]byte, 512)
	for i := 0; i < 64; i++ {
		value[0] = byte(i)
		req := kvs.Request{Op: kvs.OpPut, Key: fmt.Sprintf("key-%02d", i), Value: value}
		if r := kvsOp(t, s, store, req); r.Status != kvs.StatusOK {
			t.Fatalf("put %d: %+v", i, r)
		}
	}
	if got := s.Mem.BackedBytes(); got != backedAfterPutBurst {
		t.Fatalf("physical memory backs %d bytes (%d frames), want %d", got, got/physmem.PageSize, backedAfterPutBurst)
	}
}
