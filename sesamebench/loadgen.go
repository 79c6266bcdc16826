package main

import (
	"math/rand"
	"time"
)

// poissonSchedule is an open-loop arrival plan: the due times
// (offsets from the window's start, ascending) of operations arriving
// at rate per second, drawn up front from the seeded rng and never
// from how fast earlier operations completed. A stalled system
// therefore still receives its load, and the stall shows in the
// latency of every operation queued behind it.
func poissonSchedule(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return due
		}
		due = append(due, d)
	}
}

// opTiming is one operation's timing relative to its due time.
type opTiming struct {
	// lateness is how long after its due time the generator sent the
	// operation (0 when it was sent on time).
	lateness time.Duration
	// latency is completion minus due time: the wait behind earlier
	// operations plus the service time.
	latency time.Duration
}

// timeOp accounts one operation given its due time, the instant it
// was actually sent, and the instant its response completed.
func timeOp(due, sent, done time.Duration) opTiming {
	late := sent - due
	if late < 0 {
		late = 0
	}
	return opTiming{lateness: late, latency: done - due}
}

// pace blocks until the due offset from origin, returning at once
// when the generator is already behind.
func pace(origin time.Time, due time.Duration) {
	if d := time.Until(origin.Add(due)); d > 0 {
		time.Sleep(d)
	}
}
