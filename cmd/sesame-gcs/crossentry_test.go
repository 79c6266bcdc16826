package main

import (
	"fmt"
	"testing"

	"sesame/internal/missionhost"
	"sesame/internal/platform"
)

// TestCrossEntryPointDigest holds the ground station's demo mission to
// the same digest a mission host gives the same classic recipe (seed,
// fleet, its ten persons) after the same number of ticks, instrumented
// and uninstrumented alike. cmd/sesame-mission holds the mission CLI
// and campaign runs to the same mission-host reference.
func TestCrossEntryPointDigest(t *testing.T) {
	const seed, ticks = 5, 120
	for _, c := range []struct{ uavs, cells int }{{4, 0}, {8, 2}} {
		t.Run(fmt.Sprintf("uavs%d-cells%d", c.uavs, c.cells), func(t *testing.T) {
			o := defaultGCSOptions()
			o.seed, o.uavs, o.cells = seed, c.uavs, c.cells
			g, err := newGCS(o)
			if err != nil {
				t.Fatal(err)
			}
			defer g.p.Close()
			for i := 0; i < ticks; i++ {
				if err := g.tick(); err != nil {
					t.Fatal(err)
				}
			}
			got := platform.Digest(g.p)

			h, err := missionhost.New(missionhost.Config{TickBudget: ticks})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			spec := missionhost.Spec{ID: "x", Seed: seed, UAVs: c.uavs, Persons: 10, HorizonS: 3600, Cells: c.cells}
			if _, err := h.Create(spec); err != nil {
				t.Fatal(err)
			}
			h.Round()
			if info, _ := h.Info("x"); info.Tick != ticks {
				t.Fatalf("hosted mission at tick %d, want %d", info.Tick, ticks)
			}
			want, err := h.Digest("x")
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("sesame-gcs digest %s != missionhost %s after %d ticks", got, want, ticks)
			}
		})
	}
}
