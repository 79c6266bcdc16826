package missionhost

import (
	"fmt"
	"testing"
)

// flyStandalone runs a Spec exactly the way a dedicated single-mission
// process would: build, tick to the horizon or completion, digest.
func flyStandalone(t *testing.T, spec Spec) string {
	t.Helper()
	digest, err := FlyStandalone(spec)
	if err != nil {
		t.Fatalf("standalone flight: %v", err)
	}
	return digest
}

// TestMissionHostDeterminism is the acceptance gate: a hosted
// mission's digest equals the same Spec flown standalone — including
// when the hosted mission is evicted (checkpointed through flightrec)
// mid-flight and rehydrated before finishing, and when the park spans
// a full host restart.
func TestMissionHostDeterminism(t *testing.T) {
	specs := map[string]Spec{
		"classic":         {ID: "det", Seed: 11, UAVs: 3, Persons: 6, HorizonS: 200, TickBudget: 3},
		"classic-sharded": {ID: "det", Seed: 12, UAVs: 5, Persons: 4, HorizonS: 160, Cells: 2, TickBudget: 5},
	}
	if !testing.Short() {
		specs["archetype"] = Spec{ID: "det", Seed: 7, Archetype: "urban_canyon", TickBudget: 4}
	}
	for name, spec := range specs {
		spec := spec
		t.Run(name, func(t *testing.T) {
			want := flyStandalone(t, spec)

			// Hosted, uninterrupted.
			h := newTestHost(t, Config{TickBudget: 1})
			if _, err := h.Create(spec); err != nil {
				t.Fatalf("create: %v", err)
			}
			roundsUntilDone(t, h, "det", 5000)
			got, err := h.Digest("det")
			if err != nil {
				t.Fatalf("Digest: %v", err)
			}
			if got != want {
				t.Fatalf("hosted digest %s != standalone %s", got, want)
			}

			// Hosted with a mid-flight evict/checkpoint/rehydrate cycle.
			dir := t.TempDir()
			h2, err := New(Config{ParkDir: dir, TickBudget: 1})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			t.Cleanup(h2.Close)
			if _, err := h2.Create(spec); err != nil {
				t.Fatalf("create: %v", err)
			}
			for i := 0; i < 3; i++ {
				h2.Round()
			}
			if err := h2.Park("det"); err != nil {
				t.Fatalf("Park: %v", err)
			}
			if info, _ := h2.Info("det"); info.State != "parked" {
				t.Fatalf("state after Park = %q", info.State)
			}
			// Survive a full process restart while parked.
			if err := h2.Shutdown(); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			h3, err := New(Config{ParkDir: dir, TickBudget: 1})
			if err != nil {
				t.Fatalf("recovering New: %v", err)
			}
			t.Cleanup(h3.Close)
			if err := h3.Resume("det"); err != nil {
				t.Fatalf("Resume: %v", err)
			}
			roundsUntilDone(t, h3, "det", 5000)
			got, err = h3.Digest("det")
			if err != nil {
				t.Fatalf("Digest after rehydrate: %v", err)
			}
			if got != want {
				t.Fatalf("evict/rehydrate digest %s != standalone %s", got, want)
			}
		})
	}
}

// TestParkAtTickZero parks missions before their first tick — Create,
// Park, Resume, fly — and holds each to its standalone digest. The
// seeds are ones whose generated timelines schedule a fault inside
// the climb-out window: a restore at tick 0 must keep those faults,
// because the first tick, not the climb-out, injects them.
func TestParkAtTickZero(t *testing.T) {
	seeds := []int64{57862, 615075, 799361}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, arch := range []string{"maritime_sar", "urban_canyon", "multi_site"} {
			spec := Spec{ID: "t0", Seed: seed, Archetype: arch, TickBudget: 50}
			t.Run(fmt.Sprintf("%s-%d", arch, seed), func(t *testing.T) {
				want := flyStandalone(t, spec)
				h := newTestHost(t, Config{})
				if _, err := h.Create(spec); err != nil {
					t.Fatalf("create: %v", err)
				}
				if err := h.Park("t0"); err != nil {
					t.Fatalf("Park: %v", err)
				}
				if err := h.Resume("t0"); err != nil {
					t.Fatalf("Resume: %v", err)
				}
				roundsUntilDone(t, h, "t0", 5000)
				got, err := h.Digest("t0")
				if err != nil {
					t.Fatalf("Digest: %v", err)
				}
				if got != want {
					t.Fatalf("park-at-tick-0 digest %s != standalone %s", got, want)
				}
			})
		}
	}
}
