package main

import (
	"fmt"
	"testing"

	"sesame/internal/campaign"
	"sesame/internal/missionhost"
	"sesame/internal/platform"
)

// climbS is the classic mission's climb-out: DefaultPlatformConfig's
// 60 m survey altitude / 3 + 2 s. Campaign horizons count it.
const climbS = 22

// TestCrossEntryPointDigest builds one classic recipe — seed, fleet,
// persons — the way this CLI, the mission host and a classic campaign
// run build it, and holds all three to one platform digest after the
// same number of ticks. The entry points differ in worker pools,
// observability and (for the campaign) a nominal link layer; none of
// that may move the digest. cmd/sesame-gcs holds the ground station to
// the same mission-host reference.
func TestCrossEntryPointDigest(t *testing.T) {
	const seed, persons, ticks = 5, 6, 120
	for _, c := range []struct{ uavs, cells int }{{4, 0}, {8, 2}} {
		t.Run(fmt.Sprintf("uavs%d-cells%d", c.uavs, c.cells), func(t *testing.T) {
			opts, err := parseArgs([]string{"-seed", fmt.Sprint(seed), "-uavs", fmt.Sprint(c.uavs),
				"-persons", fmt.Sprint(persons), "-cells", fmt.Sprint(c.cells), "-debug-addr", "unused"})
			if err != nil {
				t.Fatal(err)
			}
			_, l, err := launch(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Platform.Close()
			for i := 0; i < ticks; i++ {
				if err := l.Platform.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			mission := platform.Digest(l.Platform)

			host := hostDigest(t, missionhost.Spec{ID: "x", Seed: seed, UAVs: c.uavs, Persons: persons,
				HorizonS: 3600, Cells: c.cells}, ticks)

			res, err := campaign.RerunOne(campaign.Spec{
				Name: "x", SeedFrom: seed, SeedCount: 1, HorizonS: climbS + ticks,
				AreaSideM: 400, Persons: persons, Fleets: []int{c.uavs}, Cells: []int{c.cells},
			}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ticks != ticks {
				t.Fatalf("campaign run flew %d ticks, want %d", res.Ticks, ticks)
			}
			if host != mission || res.Digest != mission {
				t.Errorf("digests diverge after %d ticks:\n  sesame-mission %s\n  missionhost    %s\n  campaign       %s",
					ticks, mission, host, res.Digest)
			}
		})
	}
}

// hostDigest flies spec for ticks ticks in a mission host and returns
// its digest.
func hostDigest(t *testing.T, spec missionhost.Spec, ticks int) string {
	t.Helper()
	h, err := missionhost.New(missionhost.Config{TickBudget: ticks})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Create(spec); err != nil {
		t.Fatal(err)
	}
	h.Round()
	if info, _ := h.Info(spec.ID); info.Tick != uint64(ticks) {
		t.Fatalf("hosted mission at tick %d, want %d", info.Tick, ticks)
	}
	d, err := h.Digest(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
