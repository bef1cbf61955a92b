package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// This file reads just enough of a runtime/pprof CPU profile (a gzipped
// profile.proto) to fold its samples by layer, so go.mod stays free of
// dependencies. Field numbers are those of profile.proto.

// cpuShareKeys are the layers CPU samples are folded into: this repo's
// packages, the Go runtime split three ways, and the rest.
var cpuShareKeys = []string{
	"mpi", "core", "matrix", "drsd", "distribution", "cluster", "loadmon",
	"telemetry", "sweep", "apps", "vclock", "go_sched", "go_gc", "go_malloc", "other",
}

// protoFields walks the fields of one protobuf message. Varint and fixed
// fields arrive in v, length-delimited ones in data.
func protoFields(b []byte, fn func(num int, v uint64, data []byte)) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errors.New("pprof: truncated field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := uvarint(b)
			if n == 0 {
				return errors.New("pprof: truncated varint")
			}
			b = b[n:]
			fn(num, v, nil)
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: truncated bytes field")
			}
			fn(num, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: truncated fixed32")
			}
			b = b[4:]
		default:
			return errors.New("pprof: unsupported wire type")
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// repeatedVarints appends a repeated varint field's values, packed or not.
func repeatedVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// cpuShares folds a CPU profile into the fraction of sampled CPU time per
// layer. Each sample is charged to the innermost frame that names a layer:
// a repro/internal package, a bench-owned rank body (application code, so
// "apps"), the allocator or the scheduler — so a memmove or a mutex
// operation counts for the package that called it. Anything running under
// a garbage-collector worker or assist is go_gc whatever it calls.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]int64{}    // function id -> string table index
	var strs []string
	err = protoFields(raw, func(num int, _ uint64, data []byte) {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			protoFields(data, func(num int, v uint64, data []byte) {
				switch num {
				case 1:
					s.locs = repeatedVarints(s.locs, v, data)
				case 2:
					vals = repeatedVarints(vals, v, data)
				}
			})
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1]) // cpu nanoseconds
				samples = append(samples, s)
			}
		case 4: // Location
			var id uint64
			var fns []uint64
			protoFields(data, func(num int, v uint64, data []byte) {
				switch num {
				case 1:
					id = v
				case 4: // Line
					protoFields(data, func(num int, v uint64, _ []byte) {
						if num == 1 {
							fns = append(fns, v)
						}
					})
				}
			})
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			protoFields(data, func(num int, v uint64, _ []byte) {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			})
			funcName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
	})
	if err != nil {
		return nil, err
	}

	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		layer := "other"
		found := false
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx < 0 || int(idx) >= len(strs) {
					continue
				}
				l, gc := layerOf(strs[idx])
				if gc {
					layer, found = "go_gc", true
					break
				}
				if l != "" && !found {
					layer, found = l, true
				}
			}
			if layer == "go_gc" {
				break
			}
		}
		shares[layer] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

var schedFuncs = []string{
	"schedule", "findRunnable", "mcall", "park_m", "gopark", "goready", "ready", "goschedImpl",
	"gosched_m", "Gosched", "wakep", "startm", "stopm", "execute", "resetspinning", "newproc",
	"goexit0", "notesleep", "notewakeup", "futexsleep", "futexwakeup", "futex", "osyield", "usleep",
	"runqgrab", "runqsteal", "stealWork", "checkTimers", "mstart", "mstart1", "handoffp",
}

var mallocFuncs = []string{"mallocgc", "newobject", "makeslice", "growslice", "newarray", "makemap", "makechan"}

var gcFuncs = []string{"gcBgMarkWorker", "gcAssistAlloc", "bgsweep", "bgscavenge", "gcStart", "gcMarkDone", "gcMarkTermination"}

// layerOf names the layer a function belongs to ("" when it names none) and
// whether it is a garbage-collector entry point.
func layerOf(fn string) (layer string, gc bool) {
	const internal = "repro/internal/"
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		if strings.HasPrefix(pkg, "apps") {
			return "apps", false
		}
		for _, k := range cpuShareKeys {
			if pkg == k {
				return k, false
			}
		}
		return "other", false
	}
	if strings.HasPrefix(fn, "main.runStencil") || strings.HasPrefix(fn, "main.runCollective") {
		return "apps", false // the rank bodies bench/ owns
	}
	if name, ok := strings.CutPrefix(fn, "runtime."); ok {
		name, _, _ = strings.Cut(name, ".") // drop closure suffixes
		for _, f := range gcFuncs {
			if name == f {
				return "go_gc", true
			}
		}
		for _, f := range mallocFuncs {
			if name == f {
				return "go_malloc", false
			}
		}
		for _, f := range schedFuncs {
			if name == f {
				return "go_sched", false
			}
		}
	}
	return "", false
}
