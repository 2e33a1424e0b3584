package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// foldLayers names the buckets a CPU profile is folded into, in
// report order; "other" takes every sample no rule claims.
var foldLayers = []string{
	"expt", "sim", "sched", "gc", "l2cache", "hbm", "nvlink", "xrand", "math",
	"core", "victim", "classify", "memgram", "report", "service", "net", "other",
}

// packageLayers maps a function's package path to its layer; runtime
// and std packages not listed fall to runtimeLayer or "other".
var packageLayers = map[string]string{
	"spybox/internal/expt":                  "expt",
	"spybox/internal/sim":                   "sim",
	"spybox/internal/l2cache":               "l2cache",
	"spybox/internal/hbm":                   "hbm",
	"spybox/internal/nvlink":                "nvlink",
	"spybox/internal/xrand":                 "xrand",
	"math":                                  "math",
	"spybox/internal/core":                  "core",
	"spybox/internal/victim":                "victim",
	"spybox/internal/classify":              "classify",
	"spybox/internal/memgram":               "memgram",
	"spybox/pkg/spybox/report":              "report",
	"spybox/pkg/spybox/service":             "service",
	"sync":                                  "sched",
	"sync/atomic":                           "sched",
	"internal/sync":                         "sched",
	"internal/runtime/atomic":               "sched",
	"net":                                   "net",
	"net/http":                              "net",
	"net/textproto":                         "net",
	"net/url":                               "net",
	"internal/poll":                         "net",
	"bufio":                                 "net",
	"syscall":                               "net",
	"internal/runtime/syscall":              "net",
	"vendor/golang.org/x/net/http/httpguts": "net",
}

// gcMarkers and schedMarkers classify runtime functions by name: the
// collector and allocator on one side, goroutine park/handoff, channel
// and lock operations on the other.
var (
	gcMarkers = []string{
		"gc", "mark", "scan", "sweep", "malloc", "mallocgc", "heap", "span", "mcache",
		"mcentral", "mspan", "wb", "bulkBarrier", "greyobject", "findObject", "newobject",
		"makeslice", "growslice", "memclrNoHeapPointers", "nextFree", "typePointers",
	}
	schedMarkers = []string{
		"park", "schedule", "findRunnable", "ready", "futex", "note", "runq", "steal",
		"sema", "lock", "unlock", "mcall", "gosched", "Gosched", "netpoll", "usleep",
		"osyield", "chan", "select", "goexit", "gogo", "wakep", "startm", "stopm",
		"handoff", "resetspinning", "systemstack", "casgstatus", "execute", "procyield",
		"timer", "pidle", "pMask", "guintptr", "Sudog", "acquirem", "releasem", "nanotime",
	}
)

// layerOf folds a function name (as pprof records it, e.g.
// "spybox/internal/l2cache.(*Cache).Access") into a layer.
func layerOf(fn string) string {
	pkg, name := splitFunc(fn)
	if l, ok := packageLayers[pkg]; ok {
		return l
	}
	if pkg == "runtime" {
		return runtimeLayer(name)
	}
	return "other"
}

func runtimeLayer(name string) string {
	for _, m := range gcMarkers {
		if strings.Contains(name, m) {
			return "gc"
		}
	}
	for _, m := range schedMarkers {
		if strings.Contains(name, m) {
			return "sched"
		}
	}
	return "other"
}

// splitFunc splits a symbol into its package path and the rest;
// generic instantiation brackets are ignored, since their type
// arguments may contain dots and slashes of their own.
func splitFunc(fn string) (pkg, name string) {
	bare := fn
	if i := strings.IndexByte(bare, '['); i >= 0 {
		bare = bare[:i]
	}
	slash := strings.LastIndexByte(bare, '/')
	dot := strings.IndexByte(bare[slash+1:], '.')
	if dot < 0 {
		return bare, ""
	}
	cut := slash + 1 + dot
	return fn[:cut], fn[cut+1:]
}

// fold accumulates self samples of CPU profiles by layer, and by
// function for the samples that land in "other".
type fold struct {
	total   int64
	byLayer map[string]int64
	other   map[string]int64
}

func newFold() *fold {
	return &fold{byLayer: map[string]int64{}, other: map[string]int64{}}
}

// add folds one gzipped pprof CPU profile, attributing each sample to
// the innermost (leaf) frame of its stack.
func (f *fold) add(gz []byte) error {
	prof, err := parseProfile(gz)
	if err != nil {
		return err
	}
	for _, s := range prof.samples {
		if s.leaf == "" {
			continue
		}
		f.total += s.count
		layer := layerOf(s.leaf)
		f.byLayer[layer] += s.count
		if layer == "other" {
			f.other[s.leaf] += s.count
		}
	}
	return nil
}

// pct reports each layer's share of the sampled CPU, in percent.
func (f *fold) pct() map[string]float64 {
	out := map[string]float64{}
	for _, l := range foldLayers {
		out[l] = 0
		if f.total > 0 {
			out[l] = 100 * float64(f.byLayer[l]) / float64(f.total)
		}
	}
	return out
}

// otherTop names the functions in the "other" bucket with the largest
// shares of the total, at most n of them.
func (f *fold) otherTop(n int) []string {
	type kv struct {
		fn string
		n  int64
	}
	var xs []kv
	for fn, c := range f.other {
		xs = append(xs, kv{fn, c})
	}
	sort.Slice(xs, func(i, j int) bool {
		if xs[i].n != xs[j].n {
			return xs[i].n > xs[j].n
		}
		return xs[i].fn < xs[j].fn
	})
	var out []string
	for i := 0; i < len(xs) && i < n; i++ {
		out = append(out, fmt.Sprintf("%s %.1f%%", xs[i].fn, 100*float64(xs[i].n)/float64(f.total)))
	}
	return out
}

// A minimal decoder of the pprof profile.proto wire format: only the
// fields needed to find each sample's leaf function.

type sampleLeaf struct {
	leaf  string
	count int64
}

type profileData struct {
	samples []sampleLeaf
}

// Field numbers of profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func parseProfile(gz []byte) (*profileData, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples  []rawSample
		locFunc  = map[uint64]uint64{} // location -> leaf function
		funcName = map[uint64]uint64{} // function -> string index
		strs     []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case sampleLocation:
					s.locs = appendVarints(s.locs, wire, v, b)
				case sampleValue:
					s.values = appendVarints(s.values, wire, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id, fn uint64
			first := true
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					if !first {
						return nil // inlined callers follow the leaf
					}
					first = false
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == lineFunction {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case profFunction:
			var id, name uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case profStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &profileData{}
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		var leaf string
		if idx := funcName[locFunc[s.locs[0]]]; idx < uint64(len(strs)) {
			leaf = strs[idx]
		}
		out.samples = append(out.samples, sampleLeaf{leaf: leaf, count: int64(s.values[0])})
	}
	return out, nil
}

// eachField walks the fields of one protobuf message, handing varint
// fields over as v and length-delimited fields as b.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(xs []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(xs, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		xs = append(xs, x)
		b = b[n:]
	}
	return xs
}
