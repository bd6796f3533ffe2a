package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// spanID names a layer boundary the traced run times.
type spanID uint8

const (
	spanDrive spanID = iota
	spanNext
	spanServe
	spanPoll
	spanEnqueue
	spanReap
	spanPost
	spanGenWrite
	spanSinkRead
	numSpans
)

var spanNames = [numSpans]string{
	"testbed.drive", "trafficgen.next", "testbed.serve",
	"wire.poll", "wire.enqueue", "wire.reap", "wire.post",
	"gen.write", "sink.read",
}

// keepSpans bounds the raw spans a tracer retains for the output file;
// the per-layer aggregates stay exact past it.
const keepSpans = 1 << 13

// spanRec is one retained span. Parent indexes the same tracer's kept
// spans (-1 for a root or a parent that was not retained).
type spanRec struct {
	Layer   string `json:"layer"`
	Parent  int32  `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// layerAgg is one layer's exact totals on one tracer.
type layerAgg struct {
	Count   uint64 `json:"count"`
	TotalNS int64  `json:"total_ns"`
	// SelfNS is TotalNS minus the time child spans covered.
	SelfNS int64 `json:"self_ns"`
}

type openSpan struct {
	id      spanID
	start   int64
	childNS int64
	rec     int32
}

// tracer records spans for one goroutine, in memory. A nil tracer is a
// no-op, so untraced code paths need no branches of their own.
type tracer struct {
	name  string
	base  time.Time
	stack []openSpan
	agg   [numSpans]layerAgg
	kept  []spanRec
	lost  uint64
}

func newTracer(name string, base time.Time) *tracer {
	return &tracer{name: name, base: base, stack: make([]openSpan, 0, 8),
		kept: make([]spanRec, 0, keepSpans)}
}

func (t *tracer) begin(id spanID) {
	if t == nil {
		return
	}
	sp := openSpan{id: id, start: int64(time.Since(t.base)), rec: -1}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].rec
	}
	if len(t.kept) < keepSpans {
		sp.rec = int32(len(t.kept))
		t.kept = append(t.kept, spanRec{Layer: spanNames[id], Parent: parent, StartNS: sp.start})
	} else {
		t.lost++
	}
	t.stack = append(t.stack, sp)
}

func (t *tracer) end() {
	if t == nil || len(t.stack) == 0 {
		return
	}
	now := int64(time.Since(t.base))
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := now - top.start
	a := &t.agg[top.id]
	a.Count++
	a.TotalNS += dur
	a.SelfNS += dur - top.childNS
	if n := len(t.stack); n > 0 {
		t.stack[n-1].childNS += dur
	}
	if top.rec >= 0 {
		t.kept[top.rec].EndNS = now
	}
}

// abort discards the innermost open span, which must have no children.
func (t *tracer) abort() {
	if t == nil || len(t.stack) == 0 {
		return
	}
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	if top.rec >= 0 && int(top.rec) == len(t.kept)-1 {
		t.kept = t.kept[:top.rec]
	} else if top.rec < 0 {
		t.lost--
	}
}

// layer returns the aggregate for id (zero on a nil tracer).
func (t *tracer) layer(id spanID) layerAgg {
	if t == nil {
		return layerAgg{}
	}
	return t.agg[id]
}

// meanNS is a layer's mean span duration.
func (t *tracer) meanNS(id spanID) float64 {
	a := t.layer(id)
	if a.Count == 0 {
		return 0
	}
	return float64(a.TotalNS) / float64(a.Count)
}

// writeSpans dumps every tracer's retained spans and exact aggregates as
// one JSON document.
func writeSpans(path, workload string, tracers []*tracer) error {
	type tracerOut struct {
		Goroutine string              `json:"goroutine"`
		Layers    map[string]layerAgg `json:"layers"`
		Spans     []spanRec           `json:"spans"`
		SpansLost uint64              `json:"spans_not_retained"`
	}
	doc := struct {
		Workload string      `json:"workload"`
		Tracers  []tracerOut `json:"tracers"`
	}{Workload: workload}
	for _, t := range tracers {
		if t == nil {
			continue
		}
		to := tracerOut{Goroutine: t.name, Layers: map[string]layerAgg{}, Spans: t.kept, SpansLost: t.lost}
		for id, a := range t.agg {
			if a.Count > 0 {
				to.Layers[spanNames[id]] = a
			}
		}
		doc.Tracers = append(doc.Tracers, to)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
