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

// foldProfile adds the samples of a runtime/pprof CPU profile to fold,
// keyed by module. Each sample is charged to the innermost frame that
// belongs to a padico/internal/<module> package, so standard-library
// frames count against their caller (sha256 in datagrid, container/heap
// in vtime). Frames of this benchmark (package main) count as
// "gridbench"; stacks with neither go to "runtime" (GC, scheduler).
//
// The profile is the gzipped profile.proto the runtime writes; only
// the fields needed here are decoded, so no tool or module outside the
// standard library is needed.
func foldProfile(gz []byte, fold map[string]int64) error {
	if len(gz) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs     []string
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples  []profSample
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s profSample
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		mod := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					continue
				}
				if m, ok := moduleOf(strs[idx]); ok {
					mod = m
					break stack
				}
			}
		}
		fold[mod] += int64(s.values[0])
	}
	return nil
}

type profSample struct {
	locs, values []uint64
}

// moduleOf maps a function symbol to its module.
func moduleOf(sym string) (string, bool) {
	if strings.HasPrefix(sym, "main.") {
		return "gridbench", true
	}
	rest, ok := strings.CutPrefix(sym, "padico/internal/")
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "/."); i > 0 {
		return rest[:i], true
	}
	return rest, true
}

// appendVarints appends a repeated uint64 field's values: one varint,
// or a packed run of them.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// protoFields walks a protobuf message, calling fn with each field's
// number and its varint value (wire type 0, with nil bytes) or its
// bytes (wire type 2). Fixed-width fields are skipped.
func protoFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
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
			body := b[n : n+int(l)] // non-nil even when empty
			b = b[n+int(l):]
			if err := fn(field, 0, body); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}
