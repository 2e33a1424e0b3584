package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"spybox/internal/l2cache.(*Cache).Access": "l2cache",
		"spybox/internal/xrand.(*Source).Norm":    "xrand",
		"math.Log":                                "math",
		"math/bits.Len64":                         "other",
		"spybox/internal/expt.runPool[go.shape.struct { spybox/internal/core.x int }].func1": "expt",
		"spybox/pkg/spybox/service.(*LogStore).appendLocked":                                 "service",
		"net/http.(*conn).serve":      "net",
		"sync.(*Mutex).Lock":          "sched",
		"runtime.park_m":              "sched",
		"runtime.findRunnable":        "sched",
		"runtime.mallocgc":            "gc",
		"runtime.gcBgMarkWorker":      "gc",
		"runtime.scanobject":          "gc",
		"runtime.memmove":             "other",
		"encoding/json.appendCompact": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(num int, v uint64) {
	b.uvarint(uint64(num)<<3 | 0)
	b.uvarint(v)
}

func (b *pb) bytesField(num int, p []byte) {
	b.uvarint(uint64(num)<<3 | 2)
	b.uvarint(uint64(len(p)))
	b.Write(p)
}

func (b *pb) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func packed(xs ...uint64) []byte {
	var b pb
	for _, x := range xs {
		b.uvarint(x)
	}
	return b.Bytes()
}

// syntheticProfile builds a gzipped profile whose samples have known
// leaves: one sample uses packed repeated fields, one unpacked, and
// one location carries an inlined frame under its leaf.
func syntheticProfile() []byte {
	var p pb
	strs := []string{"", "samples", "count", "spybox/internal/l2cache.(*Cache).Access",
		"spybox/internal/sim.(*Machine).service", "runtime.memmove"}

	var s1 pb // leaf l2cache (location 1), caller sim (location 2); packed
	s1.bytesField(sampleLocation, packed(1, 2))
	s1.bytesField(sampleValue, packed(7, 70_000_000))
	p.bytesField(profSample, s1.Bytes())
	var s2 pb // leaf runtime.memmove; unpacked
	s2.varint(sampleLocation, 3)
	s2.varint(sampleLocation, 2)
	s2.varint(sampleValue, 3)
	s2.varint(sampleValue, 30_000_000)
	p.bytesField(profSample, s2.Bytes())

	loc := func(id uint64, fns ...uint64) {
		var l pb
		l.varint(locationID, id)
		for _, fn := range fns {
			var line pb
			line.varint(lineFunction, fn)
			l.bytesField(locationLine, line.Bytes())
		}
		p.bytesField(profLocation, l.Bytes())
	}
	loc(1, 10, 20) // l2cache inlined into sim: the leaf is l2cache
	loc(2, 20)
	loc(3, 30)
	fn := func(id, name uint64) {
		var f pb
		f.varint(functionID, id)
		f.varint(functionName, name)
		p.bytesField(profFunction, f.Bytes())
	}
	fn(10, 3)
	fn(20, 4)
	fn(30, 5)
	for _, s := range strs {
		p.bytesField(profStrings, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	zw.Close()
	return gz.Bytes()
}

func TestFoldSyntheticProfile(t *testing.T) {
	f := newFold()
	if err := f.add(syntheticProfile()); err != nil {
		t.Fatal(err)
	}
	if f.total != 10 {
		t.Fatalf("total samples = %d, want 10", f.total)
	}
	pct := f.pct()
	if pct["l2cache"] != 70 || pct["other"] != 30 || pct["sim"] != 0 {
		t.Errorf("fold = %v, want l2cache 70, other 30, sim 0", pct)
	}
	var sum float64
	for _, l := range foldLayers {
		sum += pct[l]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("layer shares sum to %v, want 100", sum)
	}
	if top := f.otherTop(5); len(top) != 1 || top[0] != "runtime.memmove 30.0%" {
		t.Errorf("otherTop = %q", top)
	}
}

func TestFoldRejectsGarbage(t *testing.T) {
	if err := newFold().add([]byte("not a profile")); err == nil {
		t.Error("folding garbage succeeded")
	}
}

//go:noinline
func spinForProfile(d time.Duration) float64 {
	x := 0.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

// TestFoldRealProfile folds a profile written by runtime/pprof.
func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spinForProfile(500 * time.Millisecond)
	pprof.StopCPUProfile()
	f := newFold()
	if err := f.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if f.total == 0 {
		t.Fatal("no samples in half a second of spinning")
	}
	found := false
	for fn := range f.other {
		found = found || strings.Contains(fn, "spinForProfile")
	}
	if !found && f.byLayer["math"] == 0 {
		t.Errorf("no sample in the spinning function: %v", f.otherTop(5))
	}
}
