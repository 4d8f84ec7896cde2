package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// hostProfile rolls a CPU profile up by module. Each sample is
// attributed to the innermost frame inside nocpu/internal/<module>, so
// the module shares sum to one with the benchmark's own code
// ("perfbench") and samples with no such frame ("other": scheduler,
// background GC). Malloc and GC time are cross-cutting and counted
// separately, so they overlap the module shares.
type hostProfile struct {
	total  int64            // sampled CPU nanoseconds
	module map[string]int64 // self nanoseconds per module
	malloc int64            // samples under runtime.mallocgc
	gc     int64            // samples in GC workers or assists
}

func newHostProfile() *hostProfile { return &hostProfile{module: map[string]int64{}} }

const internalPrefix = "nocpu/internal/"

// gcRoots are the runtime entry points whose samples are GC work.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.markroot", "runtime.gcDrain",
}

// add parses one gzipped pprof CPU profile and accumulates it.
func (p *hostProfile) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range prof.samples {
		// value[0] is the sample count, value[1] CPU nanoseconds.
		if len(s.values) < 2 {
			continue
		}
		ns := s.values[1]
		p.total += ns
		mod, malloc, gc := "", false, false
		for _, loc := range s.locs {
			for _, fn := range prof.locFuncs[loc] {
				name := prof.strings[prof.funcName[fn]]
				if mod == "" {
					switch {
					case strings.HasPrefix(name, internalPrefix):
						rest := name[len(internalPrefix):]
						mod = rest[:strings.IndexAny(rest+".", "./")]
					case strings.HasPrefix(name, "main."):
						mod = "perfbench"
					}
				}
				malloc = malloc || name == "runtime.mallocgc"
				for _, g := range gcRoots {
					gc = gc || strings.HasPrefix(name, g)
				}
			}
		}
		if mod == "" {
			mod = "other"
		}
		p.module[mod] += ns
		if malloc {
			p.malloc += ns
		}
		if gc {
			p.gc += ns
		}
	}
	return nil
}

func (p *hostProfile) frac(ns int64) float64 {
	if p.total == 0 {
		return 0
	}
	return float64(ns) / float64(p.total)
}

// profile is the subset of the pprof protobuf the roll-up reads.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// decodeProfile reads the fields of perftools.profiles.Profile the
// roll-up needs: sample (2), location (4), function (5), string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := walk(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s sample
			err := walk(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					return unpack(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return unpack(v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := walk(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line: function_id is field 1
					return walk(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := walk(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

var errProto = errors.New("profile: malformed protobuf")

// walk calls fn for each field of a protobuf message: v holds a varint
// value, data a length-delimited payload (nil otherwise).
func walk(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// unpack handles a repeated varint field in either encoding: one
// varint, or a packed length-delimited run of them.
func unpack(v uint64, data []byte, each func(uint64)) error {
	if data == nil {
		each(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		each(x)
		data = data[n:]
	}
	return nil
}
