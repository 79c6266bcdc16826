package sar

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestFleetAvailabilityDeterministic pins the fleet mean to one
// summation order. The fixture's per-UAV availabilities are chosen so
// that their floating-point sum depends on the order of addition; a
// mean taken in map-iteration order then differs between calls in the
// last ULP, which leaks into every digest that hashes availability.
func TestFleetAvailabilityDeterministic(t *testing.T) {
	const end = 997.0
	var ids []string
	for i := 0; i < 24; i++ {
		ids = append(ids, fmt.Sprintf("u%02d", i))
	}
	tr, err := NewAvailabilityTracker(0, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		// Downtimes spread over several binades: 1/7 s up to ~600 s.
		down := float64(i*i+1) / 7 * float64(1+i%5)
		if err := tr.MarkDown(id, 100); err != nil {
			t.Fatal(err)
		}
		if err := tr.MarkUp(id, 100+down); err != nil {
			t.Fatal(err)
		}
	}
	avs := make([]float64, len(ids))
	for i, id := range ids {
		if avs[i], err = tr.Availability(id, end); err != nil {
			t.Fatal(err)
		}
	}
	sum := func(vals []float64) float64 {
		var s float64
		for _, v := range vals {
			s += v
		}
		return s
	}
	sorted := sum(avs) / float64(len(avs))
	sensitive := false
	shuffled := append([]float64(nil), avs...)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20 && !sensitive; i++ {
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		sensitive = sum(shuffled)/float64(len(shuffled)) != sorted
	}
	if !sensitive {
		t.Fatal("fixture is not order-sensitive; the test would prove nothing")
	}
	for i := 0; i < 100; i++ {
		got, err := tr.FleetAvailability(end)
		if err != nil {
			t.Fatal(err)
		}
		if got != sorted {
			t.Fatalf("call %d: FleetAvailability = %.17g, want the sorted-order mean %.17g", i, got, sorted)
		}
	}
	restored, err := RestoreAvailabilityTracker(tr.State())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := restored.FleetAvailability(end); got != sorted {
		t.Fatalf("restored tracker: FleetAvailability = %.17g, want %.17g", got, sorted)
	}
}
