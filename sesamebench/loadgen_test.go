package main

import (
	"math/rand"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeededAndBounded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 200, 10*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 200, 10*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between runs of one seed", i)
		}
		if a[i] >= 10*time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or outside the window", i, a[i])
		}
	}
	// 2000 expected arrivals; five standard deviations is ~224.
	if n := len(a); n < 1776 || n > 2224 {
		t.Errorf("%d arrivals at 200/s over 10 s", n)
	}
	c := poissonSchedule(rand.New(rand.NewSource(8)), 200, 10*time.Second)
	if len(c) == len(a) && c[0] == a[0] {
		t.Error("another seed gave the same schedule")
	}
}

func TestTimeOpFromDueTime(t *testing.T) {
	ms := time.Millisecond
	// On time: latency is the service time, lateness zero.
	if got := timeOp(10*ms, 10*ms, 12*ms); got.latency != 2*ms || got.lateness != 0 {
		t.Errorf("on-time op: %+v", got)
	}
	// Sent late behind a stall: latency counts the wait.
	if got := timeOp(10*ms, 40*ms, 42*ms); got.latency != 32*ms || got.lateness != 30*ms {
		t.Errorf("late op: %+v", got)
	}
}

// simulateOpenLoop runs the generator's discipline on one connection
// against fixed service times: each op is sent at its due time, or
// when the previous one completes if that is later.
func simulateOpenLoop(due, service []time.Duration) []opTiming {
	var out []opTiming
	var free time.Duration
	for i := range due {
		sent := due[i]
		if free > sent {
			sent = free
		}
		done := sent + service[i]
		free = done
		out = append(out, timeOp(due[i], sent, done))
	}
	return out
}

func TestOpenLoopStallDelaysLaterOps(t *testing.T) {
	ms := time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms}
	service := []time.Duration{1 * ms, 35 * ms, 1 * ms, 1 * ms, 1 * ms}
	got := simulateOpenLoop(due, service)
	// Op 1 stalls from 10 to 45 ms; ops 2 and 3 wait behind it, so a
	// closed-loop client would have hidden 25 and 16 ms of waiting.
	want := []struct{ latency, lateness time.Duration }{
		{1 * ms, 0},
		{35 * ms, 0},
		{26 * ms, 25 * ms},
		{17 * ms, 16 * ms},
		{8 * ms, 7 * ms},
	}
	for i, w := range want {
		if got[i].latency != w.latency || got[i].lateness != w.lateness {
			t.Errorf("op %d: latency %v lateness %v, want %v %v", i, got[i].latency, got[i].lateness, w.latency, w.lateness)
		}
	}
}

func TestPaceWaitsForDueTime(t *testing.T) {
	origin := time.Now()
	pace(origin, 20*time.Millisecond)
	if el := time.Since(origin); el < 20*time.Millisecond {
		t.Errorf("pace returned after %v, before the due time", el)
	}
	start := time.Now()
	pace(origin, 0) // already past: returns at once
	if el := time.Since(start); el > 10*time.Millisecond {
		t.Errorf("pace for a past due time took %v", el)
	}
}
