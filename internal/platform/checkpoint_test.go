package platform

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sesame/internal/linksim"
	"sesame/internal/obsv"
	"sesame/internal/scenario"
)

// impairedRecipe is a classic mission behind a degraded link on every
// vehicle; the recipe's layer covers the telemetry bus and the IDS
// alert broker.
func impairedRecipe(profile linksim.Profile) Recipe {
	return Recipe{Seed: 31, UAVs: 3, Persons: 3, AreaSideM: 250, HorizonS: 400,
		Link: &LinkPlan{Name: "gate", Profile: profile}}
}

// inFlightProfile delays, duplicates and reorders frames, so most tick
// boundaries have frames in flight.
var inFlightProfile = linksim.Profile{
	DupProb: 0.1, DelayProb: 0.25, DelayMinS: 0.4, DelayMaxS: 2.6,
	ReorderProb: 0.15, HoldMaxS: 1.5,
}

// urbanCanyonRecipe is the examples/scenarios/urban_canyon.json mission.
func urbanCanyonRecipe(t *testing.T) Recipe {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "urban_canyon.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Load(data)
	if err != nil {
		t.Fatal(err)
	}
	return Recipe{Scenario: sc}
}

// flyTicks ticks the launch until it has completed n ticks, its
// mission completes, or its horizon runs out.
func flyTicks(t *testing.T, l *Launch, n uint64) {
	t.Helper()
	for l.Platform.Ticks() < n && !l.Platform.MissionComplete() && l.World.Clock.Now() < l.End {
		if err := l.Platform.Tick(); err != nil {
			t.Fatal(err)
		}
	}
}

// buildLaunch builds r and closes it with the test.
func buildLaunch(t *testing.T, r Recipe) *Launch {
	t.Helper()
	l, err := r.Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Platform.Close)
	return l
}

// checkpointJSON takes a checkpoint through its JSON encoding, the way
// the flight recorder and the mission host store it.
func checkpointJSON(t *testing.T, p *Platform) *PlatformSnapshot {
	t.Helper()
	snap, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back PlatformSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	return &back
}

// TestLinkStatsSurviveRestore checks that a mission resumed from a
// checkpoint ends with the link counters of the uninterrupted run, not
// the rebuild's. The link drops and duplicates but holds nothing in
// flight, so only the counters are at stake.
func TestLinkStatsSurviveRestore(t *testing.T) {
	recipe := impairedRecipe(linksim.Profile{DropProb: 0.05, DupProb: 0.1})
	donor := buildLaunch(t, recipe)
	flyTicks(t, donor, 25)
	snap := checkpointJSON(t, donor.Platform)
	resumed := buildLaunch(t, recipe)
	if err := resumed.Platform.RestoreCheckpoint(snap); err != nil {
		t.Fatal(err)
	}
	flyTicks(t, donor, math.MaxUint64)
	flyTicks(t, resumed, math.MaxUint64)
	if got, want := resumed.Links.Stats(), donor.Links.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed link stats %+v != donor %+v", got, want)
	}
	if got, want := Digest(resumed.Platform), Digest(donor.Platform); got != want {
		t.Fatalf("resumed digest %s != donor %s", got, want)
	}
}

// TestCheckpointEveryTick is the total-checkpoint gate: a checkpoint
// taken at every tick boundary of a mission, through JSON onto a fresh
// build, resumes bit-identically to the uninterrupted run — digest and
// link counters — with link frames in flight at the cut.
func TestCheckpointEveryTick(t *testing.T) {
	for name, recipe := range map[string]Recipe{
		"classic-impaired": impairedRecipe(inFlightProfile),
		"urban-canyon":     urbanCanyonRecipe(t),
	} {
		t.Run(name, func(t *testing.T) {
			donor := buildLaunch(t, recipe)
			var snaps []*PlatformSnapshot
			var bus, broker, held bool
			for {
				snap := checkpointJSON(t, donor.Platform)
				for _, f := range snap.Links.Frames {
					bus = bus || f.Bus
					broker = broker || !f.Bus
					held = held || f.Held
				}
				snaps = append(snaps, snap)
				before := donor.Platform.Ticks()
				flyTicks(t, donor, before+1)
				if donor.Platform.Ticks() == before {
					break
				}
			}
			if !bus || !held || (name == "classic-impaired" && !broker) {
				t.Fatalf("gate never checkpointed a frame in flight: bus=%v held=%v broker=%v", bus, held, broker)
			}
			final := donor.Platform.Ticks()
			want, wantLinks := Digest(donor.Platform), donor.Links.Stats()
			for _, snap := range snaps {
				resumed := buildLaunch(t, recipe)
				if err := resumed.Platform.RestoreCheckpoint(snap); err != nil {
					t.Fatalf("restore at tick %d: %v", snap.Tick, err)
				}
				flyTicks(t, resumed, final)
				if got := Digest(resumed.Platform); got != want {
					t.Fatalf("resumed from tick %d: digest %s != uninterrupted %s", snap.Tick, got, want)
				}
				if got := resumed.Links.Stats(); !reflect.DeepEqual(got, wantLinks) {
					t.Fatalf("resumed from tick %d: link stats %+v != uninterrupted %+v", snap.Tick, got, wantLinks)
				}
				resumed.Platform.Close()
			}
		})
	}
}

// TestCheckpointWithoutLinkStateRestores covers checkpoints written
// before link layers were checkpointed: they carry no link state and
// were all taken with nothing in flight, and they still resume onto
// the uninterrupted run's digest (link counters restart at zero).
func TestCheckpointWithoutLinkStateRestores(t *testing.T) {
	recipe := impairedRecipe(linksim.Profile{DropProb: 0.05, DupProb: 0.1})
	donor := buildLaunch(t, recipe)
	flyTicks(t, donor, 20)
	snap := checkpointJSON(t, donor.Platform)
	if len(snap.Links.Frames) != 0 {
		t.Fatalf("a drop/dup link left %d frames in flight", len(snap.Links.Frames))
	}
	snap.Links = nil
	resumed := buildLaunch(t, recipe)
	if err := resumed.Platform.RestoreCheckpoint(snap); err != nil {
		t.Fatal(err)
	}
	flyTicks(t, donor, math.MaxUint64)
	flyTicks(t, resumed, math.MaxUint64)
	if got, want := Digest(resumed.Platform), Digest(donor.Platform); got != want {
		t.Fatalf("resumed digest %s != donor %s", got, want)
	}
}

// TestConfigDigestPinned pins ConfigDigest for representative
// configurations to the digests recordings and mission-host parks
// already carry: the contingency calibration is constant now, but the
// digest must still hash it under its old field names, or those
// recordings would no longer resume.
func TestConfigDigestPinned(t *testing.T) {
	sesameOff, cells, public := DefaultConfig(), DefaultConfig(), DefaultConfig()
	sesameOff.SESAME = false
	cells.Cells = 4
	public.Origin = "203.0.113.5"
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"default", DefaultConfig(), "sha256:34d6416168c9926e7d19dfca7b4cf8c66f0f385cfab6c7feffa5d35bc0567fed"},
		{"sesame-off", sesameOff, "sha256:84ba8a43a1fcb5c97222eafd0ffa3b3d4b647d2400da655bba1a1ffb9343afc8"},
		{"cells-4", cells, "sha256:f8fd20f30e45f62f4b9baf9b44be250b3b649720b4403b43e29ae12eca7cd340"},
		{"public-origin", public, "sha256:5903cdeb19fabc94e55fdf38d33c9858b4f447050e5c0530bc8a260c81f11376"},
	} {
		if got := buildPlatform(t, tc.cfg, 1, 0).ConfigDigest(); got != tc.want {
			t.Errorf("%s: ConfigDigest %s, want %s", tc.name, got, tc.want)
		}
	}
	sc, err := scenario.Generate(7, scenario.UrbanCanyon)
	if err != nil {
		t.Fatal(err)
	}
	const want = "sha256:670e8cd8011883045b1f27a9dcb6db40d68019e11f61bfcbaacef366c006ef0a"
	if got := buildLaunch(t, Recipe{Scenario: sc}).Platform.ConfigDigest(); got != want {
		t.Errorf("generated urban canyon: ConfigDigest %s, want %s", got, want)
	}
}

// linkCounters returns the registry's sesame_link_* series.
func linkCounters(reg *obsv.Registry) map[string]uint64 {
	out := make(map[string]uint64)
	for k, v := range reg.CounterValues() {
		if strings.HasPrefix(k, "sesame_link_") {
			out[k] = v
		}
	}
	return out
}

// instrumentedLaunch builds r with observability into a fresh registry.
func instrumentedLaunch(t *testing.T, r Recipe) (*Launch, *obsv.Registry) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Observability = obsv.NewRegistry()
	l, err := r.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Platform.Close)
	return l, cfg.Observability
}

// TestRecipeLinkMetrics checks that a recipe's link layer reports into
// the platform's registry, one series per vehicle link.
func TestRecipeLinkMetrics(t *testing.T) {
	l, reg := instrumentedLaunch(t, impairedRecipe(linksim.Profile{DropProb: 0.05, DupProb: 0.1}))
	flyTicks(t, l, 10)
	got := linkCounters(reg)
	for _, id := range []string{"u1", "u2", "u3"} {
		key := `sesame_link_offered_total{link="` + id + `"}`
		if want := l.Links.Stats()[id].Offered; want == 0 || got[key] != want {
			t.Errorf("%s = %d, want the link's %d offered frames", key, got[key], want)
		}
	}
}

// TestLinkMetricsSurviveRestore checks that a mission restored
// mid-flight reports the link metrics of the uninterrupted run, both
// right after the restore and at the end.
func TestLinkMetricsSurviveRestore(t *testing.T) {
	recipe := impairedRecipe(inFlightProfile)
	donor, donorReg := instrumentedLaunch(t, recipe)
	flyTicks(t, donor, 25)
	snap := checkpointJSON(t, donor.Platform)
	atCut := linkCounters(donorReg)
	if len(atCut) == 0 {
		t.Fatal("the recipe's link layer reports no sesame_link_* series")
	}
	resumed, resumedReg := instrumentedLaunch(t, recipe)
	if err := resumed.Platform.RestoreCheckpoint(snap); err != nil {
		t.Fatal(err)
	}
	if got := linkCounters(resumedReg); !reflect.DeepEqual(got, atCut) {
		t.Fatalf("restored link metrics %v != donor's at the cut %v", got, atCut)
	}
	flyTicks(t, donor, math.MaxUint64)
	flyTicks(t, resumed, donor.Platform.Ticks())
	if got, want := linkCounters(resumedReg), linkCounters(donorReg); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed link metrics %v != donor %v", got, want)
	}
}
