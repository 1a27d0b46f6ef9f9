package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"

	"ibasim/internal/prof"
)

// phaseShares runs f under a CPU profile with the fabric's hot-path
// phase labels armed and returns, per phase, its share of all CPU time
// sampled while f ran.
func phaseShares(f func() error) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	prof.SetHotPhases(true)
	ferr := f()
	prof.SetHotPhases(false)
	pprof.StopCPUProfile()
	if ferr != nil {
		return nil, ferr
	}
	byPhase, total, err := cpuByLabel(buf.Bytes(), "phase")
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64)
	for _, ph := range []string{prof.PhaseRoute, prof.PhaseArbitrate, prof.PhaseDepart, prof.PhaseFused} {
		shares[ph] = ratio(float64(byPhase[ph]), float64(total))
	}
	return shares, nil
}

// cpuByLabel decodes a gzipped pprof CPU profile and sums the CPU
// nanoseconds of its samples by the value of one label key; total
// covers every sample, labelled or not. Only the few profile.proto
// fields it needs are read: Profile.sample (2) and
// Profile.string_table (6), Sample.value (2) and Sample.label (3),
// Label.key (1) and Label.str (2).
func cpuByLabel(gz []byte, key string) (byValue map[string]int64, total int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		cpu    int64
		labels [][2]int64 // string-table indexes of key and value
	}
	var samples []sample
	var strs []string
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			var vals []int64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 2 && b == nil:
					vals = append(vals, int64(v))
				case num == 2:
					return packed(b, func(v uint64) { vals = append(vals, int64(v)) })
				case num == 3:
					var kv [2]int64
					err := fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			if len(vals) > 0 {
				s.cpu = vals[len(vals)-1] // [samples/count, cpu/nanoseconds]
			}
			samples = append(samples, s)
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	byValue = make(map[string]int64)
	for _, s := range samples {
		total += s.cpu
		for _, kv := range s.labels {
			if str(kv[0]) == key {
				byValue[str(kv[1])] += s.cpu
			}
		}
	}
	return byValue, total, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling f with each field number
// and either its varint value (b == nil) or its length-delimited bytes.
// Fixed-width fields are skipped.
func fields(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		tag, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(tag>>3), tag&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errTruncated
			}
			msg = msg[w:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := f(num, 0, b); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// packed decodes a packed repeated varint field.
func packed(b []byte, f func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		f(v)
		b = b[n:]
	}
	return nil
}
