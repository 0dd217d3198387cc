package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// shareLayers are the groups a CPU profile's samples are split into. A
// sample is charged to the innermost frame that belongs to one of the
// repository's packages, so standard-library and Go-runtime callees
// (sha256, mallocgc, ...) count toward the layer that called them.
// Samples with no repository frame at all (GC workers, the scheduler)
// are "go"; this benchmark's own code is "bench".
var shareLayers = []string{
	"channel", "xcrypto", "wire", "runtime", "vclock", "simnet", "telemetry",
	"enclave", "erb", "erng", "go", "bench", "other",
}

// layerOf maps a function name from a profile to its share layer, or ""
// when the function is outside the repository.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "main" || pkg == "sgxp2p/perfbench":
		return "bench" // the binary, or its test
	case pkg == "sgxp2p/internal/core/erb":
		return "erb"
	case pkg == "sgxp2p/internal/core/erng":
		return "erng"
	case strings.HasPrefix(pkg, "sgxp2p/internal/"):
		name := strings.TrimPrefix(pkg, "sgxp2p/internal/")
		for _, l := range shareLayers {
			if l == name {
				return l
			}
		}
		return "other"
	case pkg == "sgxp2p" || strings.HasPrefix(pkg, "sgxp2p/"):
		return "other"
	}
	return ""
}

// profileShares parses CPU profiles as runtime/pprof writes them (gzipped
// profile.proto) and returns each share layer's fraction of their summed
// CPU time, with the number of samples.
func profileShares(profiles [][]byte) (map[string]float64, int, error) {
	byLayer := map[string]float64{}
	n := 0
	for _, data := range profiles {
		k, err := addProfile(byLayer, data)
		if err != nil {
			return nil, 0, err
		}
		n += k
	}
	var total float64
	for _, v := range byLayer {
		total += v
	}
	shares := make(map[string]float64, len(shareLayers))
	for _, l := range shareLayers {
		shares[l] = ratio(byLayer[l], total)
	}
	return shares, n, nil
}

// addProfile adds one profile's CPU time to byLayer and returns its
// sample count.
func addProfile(byLayer map[string]float64, data []byte) (int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return 0, err
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples   []sample
		strs      []string
		funcName  = map[uint64]int64{} // function id -> string index
		locFuncs  = map[uint64][]uint64{}
		valueSlot = -1
		nTypes    int
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			nTypes++
			valueSlot = nTypes - 1 // the last type is cpu/nanoseconds
		case 2: // sample
			var s sample
			var vals []int64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if valueSlot >= 0 && valueSlot < len(vals) {
				s.value = vals[valueSlot]
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; lines[0] is the innermost inlined frame
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for _, s := range samples {
		layer := "go"
	walk:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx < 0 || int(idx) >= len(strs) {
					continue
				}
				if l := layerOf(strs[idx]); l != "" {
					layer = l
					break walk
				}
			}
		}
		byLayer[layer] += float64(s.value)
	}
	return len(samples), nil
}

var errProto = errors.New("malformed profile")

// eachField walks the top-level fields of one protobuf message, passing
// varint values as v and length-delimited payloads as b.
func eachField(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		field := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field occurrence: a single
// value (b nil) or a packed run.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
