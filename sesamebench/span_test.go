package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 1, name: "round", start: 0, end: 100 * ms},
		// Two overlapping children cover [10, 50) once: 40 ms.
		{id: 2, parent: 1, name: "tick", start: 10 * ms, end: 40 * ms},
		{id: 3, parent: 1, name: "tick", start: 30 * ms, end: 50 * ms},
		// A disjoint child: 10 ms.
		{id: 4, parent: 1, name: "park", start: 60 * ms, end: 70 * ms},
		// A grandchild is its parent's business, not the round's.
		{id: 5, parent: 4, name: "write", start: 62 * ms, end: 68 * ms},
	}
	st := reduce(spans)
	if got := st["round"].self; got != 50*ms {
		t.Errorf("round self = %v, want 50ms", got)
	}
	if got := st["round"].total; got != 100*ms {
		t.Errorf("round total = %v, want 100ms", got)
	}
	if got := st["tick"].self; got != 50*ms || st["tick"].count != 2 {
		t.Errorf("tick self = %v count %d, want 50ms over 2", got, st["tick"].count)
	}
	if got := st["park"].self; got != 4*ms {
		t.Errorf("park self = %v, want 4ms", got)
	}
}

func TestCoveredClipsToParent(t *testing.T) {
	ms := time.Millisecond
	kids := []span{
		{start: 0, end: 20 * ms},        // starts before the parent
		{start: 90 * ms, end: 130 * ms}, // outlives the parent
		{start: 40 * ms, end: 40 * ms},  // empty
	}
	if got := covered(10*ms, 100*ms, kids); got != 20*ms {
		t.Errorf("covered = %v, want 20ms (10 + 10)", got)
	}
	if got := covered(0, 10*ms, nil); got != 0 {
		t.Errorf("covered with no children = %v", got)
	}
}

func TestTracerNestsAndNilIsFree(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer", false)
	inner := tr.begin("inner", true)
	_ = make([]byte, 1<<20)
	tr.end(inner, true)
	tr.end(outer, false)
	if len(tr.spans) != 2 || tr.spans[1].parent != tr.spans[0].id {
		t.Fatalf("spans %+v: inner should be a child of outer", tr.spans)
	}
	if tr.spans[1].bytes < 1<<20 {
		t.Errorf("counted span saw %d bytes, want >= 1 MiB", tr.spans[1].bytes)
	}
	var none *tracer
	f := none.begin("x", true)
	none.end(f, true) // must not panic
}
