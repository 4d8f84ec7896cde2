package smartssd

import (
	"bytes"
	"strings"
	"testing"

	"nocpu/internal/sim"
)

func testGeo() FlashGeometry {
	return FlashGeometry{Channels: 2, DiesPerChan: 1, BlocksPerDie: 8, PagesPerBlock: 8, PageSize: 4096}
}

func TestFlashReadProgramErase(t *testing.T) {
	eng := sim.NewEngine()
	f := newFlash(eng, testGeo(), DefaultTiming)
	data := []byte("flash payload")
	var got []byte
	f.program(3, data, func(err error) {
		if err != nil {
			t.Error(err)
		}
		f.read(3, func(b []byte, err error) { got = b })
	})
	eng.Run()
	if !bytes.Equal(got[:len(data)], data) {
		t.Fatalf("read back %q", got[:len(data)])
	}
	// Program-on-programmed must fail.
	var perr error
	f.program(3, data, func(err error) { perr = err })
	eng.Run()
	if perr == nil {
		t.Error("double program accepted")
	}
	// Erase block 0 (pages 0-7) clears page 3.
	f.erase(0, func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	f.read(3, func(b []byte, err error) { got = b })
	eng.Run()
	if got[0] != 0 {
		t.Error("erase did not clear page")
	}
	if f.erases[0] != 1 {
		t.Error("wear not counted")
	}
}

func TestFlashTiming(t *testing.T) {
	eng := sim.NewEngine()
	f := newFlash(eng, testGeo(), DefaultTiming)
	var doneAt sim.Time
	f.read(0, func([]byte, error) { doneAt = eng.Now() })
	eng.Run()
	if doneAt != sim.Time(DefaultTiming.Read) {
		t.Errorf("read completed at %v, want %v", doneAt, DefaultTiming.Read)
	}
	// Two reads on the same channel serialize; different channels overlap.
	// Geometry: block = ppa/8; channel = block%2. PPA 0 and 8 are on
	// different channels; 0 and 16 share channel 0.
	eng2 := sim.NewEngine()
	f2 := newFlash(eng2, testGeo(), DefaultTiming)
	var t1, t2, t3 sim.Time
	f2.read(0, func([]byte, error) { t1 = eng2.Now() })
	f2.read(16, func([]byte, error) { t2 = eng2.Now() })
	f2.read(8, func([]byte, error) { t3 = eng2.Now() })
	eng2.Run()
	if t1 != sim.Time(DefaultTiming.Read) || t3 != t1 {
		t.Errorf("parallel channels: t1=%v t3=%v", t1, t3)
	}
	if t2 != sim.Time(2*DefaultTiming.Read) {
		t.Errorf("same channel serialized: t2=%v", t2)
	}
}

func TestFlashBoundsAndBroken(t *testing.T) {
	eng := sim.NewEngine()
	f := newFlash(eng, testGeo(), DefaultTiming)
	var errs int
	f.read(PPA(f.geo.TotalPages()), func(_ []byte, err error) {
		if err != nil {
			errs++
		}
	})
	f.program(PPA(f.geo.TotalPages()), nil, func(err error) {
		if err != nil {
			errs++
		}
	})
	f.erase(-1, func(err error) {
		if err != nil {
			errs++
		}
	})
	f.broken = true
	f.read(0, func(_ []byte, err error) {
		if err != nil {
			errs++
		}
	})
	eng.Run()
	if errs != 4 {
		t.Errorf("errs = %d, want 4", errs)
	}
}

func TestFTLReadUnwrittenIsZeros(t *testing.T) {
	eng := sim.NewEngine()
	ftl := newFTL(eng, newFlash(eng, testGeo(), DefaultTiming), 0.25)
	var got []byte
	ftl.Read(5, func(b []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		got = b
	})
	eng.Run()
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten page not zeroed")
		}
	}
}

func TestFTLWriteReadOverwrite(t *testing.T) {
	eng := sim.NewEngine()
	ftl := newFTL(eng, newFlash(eng, testGeo(), DefaultTiming), 0.25)
	v1 := bytes.Repeat([]byte{1}, 4096)
	v2 := bytes.Repeat([]byte{2}, 4096)
	var got []byte
	ftl.Write(7, v1, func(err error) {
		if err != nil {
			t.Error(err)
		}
		ftl.Write(7, v2, func(err error) {
			if err != nil {
				t.Error(err)
			}
			ftl.Read(7, func(b []byte, err error) { got = b })
		})
	})
	eng.Run()
	if !bytes.Equal(got, v2) {
		t.Fatal("overwrite not visible")
	}
	if ftl.Stats().HostWrites != 2 {
		t.Errorf("host writes = %d", ftl.Stats().HostWrites)
	}
}

func TestFTLBounds(t *testing.T) {
	eng := sim.NewEngine()
	ftl := newFTL(eng, newFlash(eng, testGeo(), DefaultTiming), 0.25)
	var errs int
	ftl.Read(ftl.Capacity(), func(_ []byte, err error) {
		if err != nil {
			errs++
		}
	})
	ftl.Write(-1, nil, func(err error) {
		if err != nil {
			errs++
		}
	})
	eng.Run()
	if errs != 2 {
		t.Errorf("errs = %d", errs)
	}
}

func TestFTLGarbageCollection(t *testing.T) {
	// Small array: 2ch x 1die x 8blk x 8pg = 128 pages, 25% OP -> 96
	// logical. Rewriting one hot page many times forces GC.
	eng := sim.NewEngine()
	ftl := newFTL(eng, newFlash(eng, testGeo(), DefaultTiming), 0.25)
	payload := bytes.Repeat([]byte{7}, 4096)
	writes := 0
	var write func()
	write = func() {
		if writes >= 400 {
			return
		}
		writes++
		ftl.Write(writes%8, payload, func(err error) {
			if err != nil {
				t.Errorf("write %d: %v", writes, err)
				return
			}
			write()
		})
	}
	write()
	eng.Run()
	st := ftl.Stats()
	if st.GCRuns == 0 {
		t.Error("GC never ran despite 400 writes into 128 pages")
	}
	if st.Erases == 0 {
		t.Error("no erases recorded")
	}
	// The hot pages must still read back correctly after GC churn.
	var got []byte
	ftl.Read(1, func(b []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		got = b
	})
	eng.Run()
	if !bytes.Equal(got, payload) {
		t.Error("data corrupted by GC")
	}
	if wa := st.WriteAmplification(); wa < 1.0 {
		t.Errorf("write amplification %f < 1", wa)
	}
}

func TestFTLGCPreservesColdData(t *testing.T) {
	eng := sim.NewEngine()
	ftl := newFTL(eng, newFlash(eng, testGeo(), DefaultTiming), 0.25)
	cold := bytes.Repeat([]byte{0xCD}, 4096)
	hot := bytes.Repeat([]byte{0x11}, 4096)
	// Write cold data once, then hammer another page to force relocations.
	ftl.Write(50, cold, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		var loop func(i int)
		loop = func(i int) {
			if i >= 300 {
				return
			}
			ftl.Write(3, hot, func(err error) {
				if err != nil {
					t.Errorf("hot write: %v", err)
					return
				}
				loop(i + 1)
			})
		}
		loop(0)
	})
	eng.Run()
	var got []byte
	ftl.Read(50, func(b []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		got = b
	})
	eng.Run()
	if !bytes.Equal(got, cold) {
		t.Error("cold data lost during GC")
	}
}

func TestFTLWearAccounting(t *testing.T) {
	eng := sim.NewEngine()
	ftl := newFTL(eng, newFlash(eng, testGeo(), DefaultTiming), 0.25)
	if w := ftl.Wear(); w.Total != 0 || w.MinErases != 0 {
		t.Fatalf("fresh wear = %+v", w)
	}
	payload := bytes.Repeat([]byte{3}, 4096)
	var loop func(i int)
	loop = func(i int) {
		if i >= 500 {
			return
		}
		ftl.Write(i%16, payload, func(err error) {
			if err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			loop(i + 1)
		})
	}
	loop(0)
	eng.Run()
	w := ftl.Wear()
	if w.Total == 0 {
		t.Fatal("no erases after 500 writes into 128 pages")
	}
	if w.MaxErases < w.MinErases {
		t.Fatalf("inconsistent wear: %+v", w)
	}
	if w.Total != ftl.Stats().Erases {
		t.Fatalf("wear total %d != stats erases %d", w.Total, ftl.Stats().Erases)
	}
}

func TestFTLTrim(t *testing.T) {
	eng := sim.NewEngine()
	ftl := newFTL(eng, newFlash(eng, testGeo(), DefaultTiming), 0.25)
	ftl.Write(2, bytes.Repeat([]byte{9}, 4096), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		ftl.Trim(2)
		ftl.Read(2, func(b []byte, err error) {
			if err != nil {
				t.Error(err)
			}
			if b[0] != 0 {
				t.Error("trimmed page still has data")
			}
		})
	})
	eng.Run()
}

// A read submitted before the overwrite that invalidates its page must
// still return the old contents, although the overwrite discards the
// page's data before the read completes.
func TestFTLReadRacingOverwriteSeesOldData(t *testing.T) {
	eng := sim.NewEngine()
	ftl := newFTL(eng, newFlash(eng, testGeo(), DefaultTiming), 0.25)
	old := bytes.Repeat([]byte{0xAA}, 4096)
	ftl.Write(0, old, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	eng.Run()
	oldPPA := ftl.l2p[0]
	// Hold the page's channel busy so the read completes after the
	// overwrite, which programs on the other channel.
	ftl.f.chanFor(oldPPA).Submit(sim.Millisecond, nil)
	var got []byte
	var readAt, writeAt sim.Time
	ftl.Read(0, func(b []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		got, readAt = b, eng.Now()
	})
	ftl.Write(0, bytes.Repeat([]byte{0xBB}, 4096), func(err error) {
		if err != nil {
			t.Error(err)
		}
		writeAt = eng.Now()
	})
	eng.Run()
	if ftl.l2p[0] == oldPPA || ftl.geo.channelOf(ftl.geo.blockOf(ftl.l2p[0])) == ftl.geo.channelOf(ftl.geo.blockOf(oldPPA)) {
		t.Fatalf("overwrite landed at ppa %d, want another channel than ppa %d", ftl.l2p[0], oldPPA)
	}
	if writeAt >= readAt {
		t.Fatalf("overwrite completed at %v, not before the read at %v", writeAt, readAt)
	}
	if !bytes.Equal(got, old) {
		t.Error("read lost the contents of a page invalidated while it was queued")
	}
}

// A page the FTL invalidated is discarded but not erased: programming it
// fails until its block is erased, and afterwards it works again.
func TestFlashDiscardedPageStaysProgrammed(t *testing.T) {
	eng := sim.NewEngine()
	ftl := newFTL(eng, newFlash(eng, testGeo(), DefaultTiming), 0.25)
	for i := 0; i < 2; i++ {
		ftl.Write(0, bytes.Repeat([]byte{byte(i + 1)}, 4096), func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		})
		eng.Run()
	}
	stale := PPA(0)
	if ftl.l2p[0] == stale || ftl.p2l[stale] != invalidLPN {
		t.Fatalf("ppa %d still mapped", stale)
	}
	f := ftl.f
	var perr error
	f.program(stale, []byte("again"), func(err error) { perr = err })
	eng.Run()
	if perr == nil || !strings.Contains(perr.Error(), "non-erased") {
		t.Fatalf("program of a discarded page: err=%v, want non-erased", perr)
	}
	var eerr error
	f.erase(f.geo.blockOf(stale), func(err error) { eerr = err })
	eng.Run()
	if eerr != nil {
		t.Fatal(eerr)
	}
	data := []byte("reprogrammed")
	var got []byte
	f.program(stale, data, func(err error) {
		if err != nil {
			t.Error(err)
		}
		f.read(stale, func(b []byte, err error) { got = b })
	})
	eng.Run()
	if !bytes.Equal(got[:len(data)], data) {
		t.Errorf("read back %q after erase and reprogram", got[:len(data)])
	}
}

// Concurrent rewrites race GC relocation, so some relocated copies go
// stale and are discarded. Every LPN must still read back the value its
// last completed write stored.
func TestFTLStaleRelocationKeepsLatestValues(t *testing.T) {
	eng := sim.NewEngine()
	ftl := newFTL(eng, newFlash(eng, testGeo(), DefaultTiming), 0.25)
	const writers, lpnsPerWriter, rounds = 4, 16, 200
	latest := map[int][]byte{}
	for w := 0; w < writers; w++ {
		var loop func(i int)
		loop = func(i int) {
			if i >= rounds {
				return
			}
			lpn := w*lpnsPerWriter + (i*5)%lpnsPerWriter
			data := bytes.Repeat([]byte{byte(lpn), byte(i)}, 2048)
			ftl.Write(lpn, data, func(err error) {
				if err != nil {
					t.Errorf("write lpn %d: %v", lpn, err)
					return
				}
				latest[lpn] = data
				loop(i + 1)
			})
		}
		loop(0)
	}
	eng.Run()
	st := ftl.Stats()
	stale := ftl.f.programs - st.HostWrites - st.GCPagesMoved
	if st.GCRuns == 0 || stale == 0 {
		t.Fatalf("gc runs %d, stale relocations %d: the race was not exercised", st.GCRuns, stale)
	}
	t.Logf("gc runs %d, pages moved %d, stale relocations %d", st.GCRuns, st.GCPagesMoved, stale)
	for lpn := 0; lpn < writers*lpnsPerWriter; lpn++ {
		want := latest[lpn]
		ftl.Read(lpn, func(b []byte, err error) {
			if err != nil || !bytes.Equal(b, want) {
				t.Errorf("lpn %d: read differs from its last write (err=%v)", lpn, err)
			}
		})
	}
	eng.Run()
}
