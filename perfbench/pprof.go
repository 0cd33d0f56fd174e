package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuBuckets groups functions into layers by package (a package and the
// packages under it); cpu.<op>.<name> is the share of CPU self time in that
// group while the op's phase ran. runtime covers allocation and garbage
// collection (and the rest of the runtime); net the HTTP stack and the
// system calls under it.
var cpuBuckets = []struct {
	name     string
	packages []string
}{
	{"bn254", []string{"mccls/internal/bn254"}},
	{"core", []string{"mccls/internal/core"}},
	{"batch", []string{"mccls/internal/batch"}},
	{"threshold", []string{"mccls/internal/threshold"}},
	{"kgcd", []string{"mccls/internal/kgcd", "mccls/internal/lru"}},
	{"bigint", []string{"math/big"}},
	{"json", []string{"encoding/json"}},
	{"net", []string{"net", "internal/poll", "syscall", "bufio"}},
	{"sim", []string{"mccls/internal/sim", "container/heap"}},
	{"radio", []string{"mccls/internal/radio"}},
	{"mobility", []string{"mccls/internal/mobility"}},
	{"aodv", []string{"mccls/internal/aodv"}},
	{"secrouting", []string{"mccls/internal/secrouting"}},
	{"runtime", []string{"runtime"}},
}

// inPackage reports whether pkg is p or a package under it.
func inPackage(pkg, p string) bool {
	return pkg == p || strings.HasPrefix(pkg, p+"/")
}

// funcPackage returns the import path of a symbol such as
// "mccls/internal/sim.(*Simulator).Run" or "runtime.mallocgc".
func funcPackage(sym string) string {
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}

// cpuShares turns self time by function into shares by bucket; what no
// bucket claims is "other".
func cpuShares(self map[string]int64) map[string]float64 {
	var total int64
	byBucket := map[string]int64{}
	for fn, v := range self {
		total += v
		pkg, bucket := funcPackage(fn), "other"
		for _, b := range cpuBuckets {
			for _, p := range b.packages {
				if inPackage(pkg, p) {
					bucket = b.name
				}
			}
		}
		byBucket[bucket] += v
	}
	out := map[string]float64{}
	for k, v := range byBucket {
		if total > 0 {
			out[k] = float64(v) / float64(total)
		}
	}
	return out
}

// selfTimeByFunction decodes a runtime/pprof CPU profile (gzipped
// profile.proto) and sums each sample's CPU time onto its innermost frame,
// inlined frames included.
func selfTimeByFunction(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs     []string
		units    []uint64              // per sample column: string index of its unit
		bodies   [][]byte              // encoded samples, decoded once the columns are known
		funcName = map[uint64]uint64{} // function id → string index
		locFunc  = map[uint64]uint64{} // location id → innermost function id
	)
	err = pbFields(raw, func(field int, _ uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var unit uint64
			units = append(units, 0)
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				if f == 2 {
					unit = v
				}
				return nil
			})
			units[len(units)-1] = unit
			return err
		case 2:
			bodies = append(bodies, b)
		case 4: // location; line[0] is the innermost (inlined) frame
			var id, fn uint64
			err := pbFields(b, func(f int, v uint64, lb []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && fn == 0:
					return pbFields(lb, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fn = lv
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
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
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	valueIdx := -1
	for i, u := range units {
		if u < uint64(len(strs)) && strs[u] == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile has no nanoseconds sample column")
	}
	self := map[string]int64{}
	for _, body := range bodies {
		var locs, vals []uint64
		if err := pbFields(body, func(f int, v uint64, b []byte) error {
			switch f {
			case 1:
				if b == nil {
					locs = append(locs, v)
					return nil
				}
				return pbPacked(b, &locs)
			case 2:
				if b == nil {
					vals = append(vals, v)
					return nil
				}
				return pbPacked(b, &vals)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if len(locs) == 0 || valueIdx >= len(vals) {
			continue
		}
		name := "unknown"
		if s := funcName[locFunc[locs[0]]]; s < uint64(len(strs)) {
			name = strs[s]
		}
		self[name] += int64(vals[valueIdx])
	}
	return self, nil
}

// pbFields walks one protobuf message, calling fn with each field's number
// and either its varint value (b nil) or its length-delimited bytes.
func pbFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := pbVarint(msg)
		if n == 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(msg)
			if n == 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := pbVarint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

func pbPacked(b []byte, out *[]uint64) error {
	for len(b) > 0 {
		v, n := pbVarint(b)
		if n == 0 {
			return errors.New("profile: bad packed varint")
		}
		*out = append(*out, v)
		b = b[n:]
	}
	return nil
}

// pbVarint decodes a varint, returning its length (0 on malformed input).
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// phaseProfiles sums CPU self time by function over the op1 and op2 phases
// of a run's traced rounds, each phase profiled on its own.
type phaseProfiles struct{ self [2]map[string]int64 }

func newPhaseProfiles() *phaseProfiles {
	return &phaseProfiles{self: [2]map[string]int64{{}, {}}}
}

// start profiles phase k (1 or 2) of a traced round; the returned stop ends
// the profile and adds it to the phase. On an untraced round both do
// nothing.
func (p *phaseProfiles) start(tr *Tracer, k int) (stop func() error) {
	if tr == nil {
		return func() error { return nil }
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return func() error { return err }
	}
	return func() error {
		pprof.StopCPUProfile()
		self, err := selfTimeByFunction(buf.Bytes())
		if err != nil {
			return fmt.Errorf("op%d profile: %w", k, err)
		}
		for fn, v := range self {
			p.self[k-1][fn] += v
		}
		return nil
	}
}

// report sets cpu.<op>.<bucket> for both phases.
func (p *phaseProfiles) report(rep *report) {
	for k, name := range []string{"op1", "op2"} {
		shares := cpuShares(p.self[k])
		for _, b := range cpuBuckets {
			rep.layer("cpu."+name+"."+b.name, shares[b.name], "share")
		}
		rep.layer("cpu."+name+".other", shares["other"], "share")
	}
}
