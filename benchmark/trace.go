package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"time"
)

// The traced run records spans from outside the program: around every
// call this benchmark makes into a layer's public functions. Spans inside
// the program are a later change (ROADMAP "one metrics spine").
//
// One client's first N requests are replayed once per layer boundary,
// outermost first (peel replay): over the wire, then against shard.Set,
// then against the devices, the index, a bare hopscotch table. The span of
// request i at one boundary is the parent of its span at the next, so a
// layer's self time is its spans' time minus its children's, and the self
// times add up to the outermost spans exactly. Calls a layer makes into a
// leaf package (kvwire, wal, hash, layout, nand) are replayed the same
// way, on the same requests, as children of that layer.

type layerID uint8

const (
	layerClient layerID = iota
	layerKVWire
	layerShard
	layerHash
	layerWAL
	layerDevice
	layerLayout
	layerNAND
	layerCore
	layerHopscotch
	numLayers
)

var layerNames = [numLayers]string{
	"client", "kvwire", "shard", "hash", "wal", "device", "layout", "nand", "core", "hopscotch",
}

// layerParent is the layer whose spans enclose a layer's spans.
var layerParent = [numLayers]layerID{
	layerClient:    layerClient, // root over the wire
	layerKVWire:    layerClient,
	layerShard:     layerClient, // root in process
	layerHash:      layerShard,
	layerWAL:       layerShard,
	layerDevice:    layerShard,
	layerLayout:    layerDevice,
	layerNAND:      layerDevice,
	layerCore:      layerDevice,
	layerHopscotch: layerCore,
}

type spanKind uint8

const (
	kindGet spanKind = iota
	kindPut
	kindScan
	kindCodec    // kvwire: encode and parse request and response
	kindSig      // hash: SigScheme.Compute
	kindAppend   // wal: Log.Append (+ Sync as the committer does)
	kindPack     // layout: PageBuilder.Add
	kindDecode   // layout: SigInfoAt + DecodePairAt
	kindPageCopy // nand: Flash.Program + Flash.Read of one page
	numKinds
)

var kindNames = [numKinds]string{
	"get", "put", "scan", "codec", "sig", "append", "pack", "decode", "page_copy",
}

// span is one timed call. Spans of one request share op; parent is the
// ID of that request's span at the enclosing layer, -1 at the root.
type span struct {
	parent     int32
	op         int32
	layer      layerID
	kind       spanKind
	start, end int64 // ns since the tracer's base
}

// tracer keeps spans in a preallocated slice and writes them out when the
// run ends.
type tracer struct {
	base  time.Time
	spans []span
	// at[layer][op] is the ID of op's span at that layer, -1 if none.
	at [numLayers][]int32
	// timerNs is what a span costs by being timed: the median of spans
	// around an empty call, taken off every span before averaging.
	timerNs float64
}

func newTracer(ops, perOp int) *tracer {
	t := &tracer{base: time.Now(), spans: make([]span, 0, ops*perOp)}
	for l := range t.at {
		t.at[l] = make([]int32, ops)
		for i := range t.at[l] {
			t.at[l][i] = -1
		}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records op's span at layer; its parent is op's span at the
// enclosing layer, which must have been replayed before.
func (t *tracer) add(layer layerID, kind spanKind, op int, start, end int64) {
	parent := int32(-1)
	if p := layerParent[layer]; p != layer {
		parent = t.at[p][op]
		// In process there is no client layer: shard spans are the roots.
		if parent < 0 && layer != layerShard {
			return // the enclosing layer did not run this op (e.g. core on a put)
		}
	}
	t.at[layer][op] = int32(len(t.spans))
	t.spans = append(t.spans, span{parent: parent, op: int32(op), layer: layer, kind: kind, start: start, end: end})
}

// layerTotals sums span time per layer and kind, with the timer's own cost
// taken off each span.
type layerTotals struct {
	kinds [numLayers][numKinds]struct {
		ns float64
		n  int
	}
	// self[l] is the time of layer l's spans minus the time of the spans
	// they are parents of.
	self    [numLayers]float64
	rootOps int
	rootNs  float64
}

func (t *tracer) totals() layerTotals {
	var lt layerTotals
	for i := range t.spans {
		s := &t.spans[i]
		d := float64(s.end-s.start) - t.timerNs
		k := &lt.kinds[s.layer][s.kind]
		k.ns += d
		k.n++
		lt.self[s.layer] += d
		if s.parent < 0 {
			lt.rootOps++
			lt.rootNs += d
		} else {
			lt.self[t.spans[s.parent].layer] -= d
		}
	}
	return lt
}

// mean is the mean span of a layer and kind in ns (0 without spans).
func (lt *layerTotals) mean(l layerID, k spanKind) float64 {
	c := lt.kinds[l][k]
	if c.n == 0 {
		return 0
	}
	return c.ns / float64(c.n)
}

// selfNsPerOp is a layer's self time per replayed request. Summed over
// layers it is the mean root span.
func (lt *layerTotals) selfNsPerOp(l layerID) float64 {
	return ratio(lt.self[l], float64(lt.rootOps))
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, 0, 160)
	for id := range t.spans {
		s := &t.spans[id]
		buf = append(buf[:0], `{"id":`...)
		buf = strconv.AppendInt(buf, int64(id), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, `,"layer":"`...)
		buf = append(buf, layerNames[s.layer]...)
		buf = append(buf, `","kind":"`...)
		buf = append(buf, kindNames[s.kind]...)
		buf = append(buf, `","op":`...)
		buf = strconv.AppendInt(buf, int64(s.op), 10)
		buf = append(buf, `,"start_ns":`...)
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, "}\n"...)
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
