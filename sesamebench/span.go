package main

import (
	"runtime"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// API. Spans are kept in memory and reduced when the run ends.
type span struct {
	id, parent int // parent 0 = root
	name       string
	start, end time.Duration // offsets from the tracer's origin
	mallocs    uint64        // heap allocations during the span
	bytes      uint64        // heap bytes allocated during the span
}

// tracer records spans around the benchmark's own calls. A nil tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of open span ids
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// frame is an open span handed back to its caller for end.
type frame struct {
	id      int
	mallocs uint64
	bytes   uint64
}

// begin opens a span as a child of the innermost open span. counted
// spans also read allocation counters, which stops the world briefly,
// so only spans around coarse calls ask for them.
func (t *tracer) begin(name string, counted bool) frame {
	if t == nil {
		return frame{}
	}
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans) + 1
	f := frame{id: id}
	if counted {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		f.mallocs, f.bytes = ms.Mallocs, ms.TotalAlloc
	}
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: time.Since(t.origin)})
	t.open = append(t.open, id)
	return f
}

// end closes the span opened by f, which must be the innermost one.
func (t *tracer) end(f frame, counted bool) {
	if t == nil {
		return
	}
	s := &t.spans[f.id-1]
	s.end = time.Since(t.origin)
	if counted {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.mallocs, s.bytes = ms.Mallocs-f.mallocs, ms.TotalAlloc-f.bytes
	}
	t.open = t.open[:len(t.open)-1]
}

// spanStats is one span name's reduction.
type spanStats struct {
	count   int
	total   time.Duration // summed span durations
	self    time.Duration // summed self times
	mallocs uint64
	bytes   uint64
	durs    dist // per-span durations in ms
}

// reduce groups the spans by name. A span's self time is its duration
// minus the union of its children's intervals, clipped to the span:
// overlapping children are not subtracted twice, and a child that
// outlives its parent is subtracted only up to the parent's end.
func reduce(spans []span) map[string]*spanStats {
	children := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]*spanStats{}
	for _, s := range spans {
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		dur := s.end - s.start
		st.count++
		st.total += dur
		st.self += dur - covered(s.start, s.end, children[s.id])
		st.mallocs += s.mallocs
		st.bytes += s.bytes
		st.durs.add(float64(dur) / float64(time.Millisecond))
	}
	return out
}

// covered is the length of the union of the children's intervals
// within [lo, hi).
func covered(lo, hi time.Duration, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := k.start, k.end
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		if v[1] > curB {
			curB = v[1]
		}
	}
	total += curB - curA
	return total
}
