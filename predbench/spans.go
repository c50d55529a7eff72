package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// span is one traced interval. Spans of one request share Req; Parent is
// the ID of the span that caused this one (0 for a request's root).
type span struct {
	ID, Parent, Req int64
	Name            string
	Start, End      int64 // Unix nanoseconds
}

// spanLog keeps a traced pass's spans in memory until the run ends. The
// workloads record raw timestamps while they run and build spans from them
// afterwards, so nothing here is touched concurrently.
type spanLog struct {
	spans []span
}

// add appends a span and returns its ID. Spans with a missing endpoint (0)
// or a negative length are skipped and return the parent instead, so a
// partially observed request still yields a consistent tree.
func (l *spanLog) add(parent, req int64, name string, start, end int64) int64 {
	if start == 0 || end == 0 || end < start {
		return parent
	}
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// selfTimes sums every span's self time — its duration minus the part of
// it its children cover — by layer, the span name's prefix before the
// first dot, and divides by the number of requests (root spans).
func (l *spanLog) selfTimes() (perLayerNs map[string]float64, requests int) {
	children := make(map[int64][][2]int64)
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
		if s.Parent == 0 {
			requests++
		}
	}
	perLayerNs = map[string]float64{}
	for _, s := range l.spans {
		covered := coveredNs(s.Start, s.End, children[s.ID])
		layer, _, _ := strings.Cut(s.Name, ".")
		perLayerNs[layer] += float64(s.End - s.Start - covered)
	}
	if requests > 0 {
		for k := range perLayerNs {
			perLayerNs[k] /= float64(requests)
		}
	}
	return perLayerNs, requests
}

// coveredNs is the length of the union of ivs clipped to [start, end].
func coveredNs(start, end int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total int64
	cur := start
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// write stores the spans as JSON lines, one span per line, with times in
// nanoseconds relative to base.
func (l *spanLog) write(path string, base int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range l.spans {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.ID, s.Parent, s.Req, s.Name, s.Start-base, s.End-base)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerSelfTimes reports each layer's mean self time per traced request as
// self_us.<layer>, for every layer in layers (0 when the workload never
// enters it).
func layerSelfTimes(layer map[string]float64, l *spanLog) {
	perLayer, _ := l.selfTimes()
	for _, name := range spanLayers {
		layer["self_us."+name] = perLayer[name] / 1e3
	}
	layer["trace.spans"] = float64(len(l.spans))
}

// spanLayers are the span-name prefixes: the benchmark's own generator
// (workload), the benchmark's bolts (app), and the program's packages.
var spanLayers = []string{"workload", "app", "dsps", "core", "cluster", "drnn", "serve"}
