package missionhost

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestUnknownMissionErrors(t *testing.T) {
	h := newTestHost(t, Config{})
	if err := h.Resume("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Resume ghost = %v", err)
	}
	if err := h.Park("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Park ghost = %v", err)
	}
	if _, err := h.Digest("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Digest ghost = %v", err)
	}
	if _, err := h.Subscribe("ghost", 4); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Subscribe ghost = %v", err)
	}
	if _, err := h.Status("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Status ghost = %v", err)
	}
	if _, err := h.Info("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Info ghost = %v", err)
	}
	if err := h.Delete("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete ghost = %v", err)
	}
}

func TestClosedHostErrors(t *testing.T) {
	dir := t.TempDir()
	h, err := New(Config{ParkDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	if _, err := h.Create(quickSpec("stay", 3)); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := h.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := h.Create(quickSpec("late", 4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Create after shutdown = %v", err)
	}
	if err := h.Resume("stay"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Resume after shutdown = %v", err)
	}
	if _, err := h.Subscribe("stay", 4); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe after shutdown = %v", err)
	}
	// A second Shutdown is a no-op, not a panic.
	if err := h.Shutdown(); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

func TestMissionAccessors(t *testing.T) {
	h := newTestHost(t, Config{})
	if _, err := h.Create(quickSpec("acc", 5)); err != nil {
		t.Fatalf("create: %v", err)
	}
	m, ok := h.Mission("acc")
	if !ok {
		t.Fatal("Mission lookup failed")
	}
	if m.ID() != "acc" {
		t.Fatalf("ID() = %q", m.ID())
	}
	if snap := m.Snapshot(); snap == nil || snap.Mission != "acc" {
		t.Fatalf("Snapshot() = %+v", snap)
	}
}

func TestHTTPNotFoundAndBadRequests(t *testing.T) {
	h := newTestHost(t, Config{})
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/missions/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown info -> %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/missions/nope", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown -> %d", resp.StatusCode)
	}

	// A spec body over the size cap is rejected before parsing.
	big := strings.Repeat(" ", maxSpecBytes+16)
	resp, err = http.Post(srv.URL+"/missions", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("oversized spec -> %d", resp.StatusCode)
	}
}

func TestHTTPCreateAfterShutdown(t *testing.T) {
	h := newTestHost(t, Config{})
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	if err := h.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	resp, err := http.Post(srv.URL+"/missions", "application/json",
		strings.NewReader(`{"id":"late","uavs":2,"persons":2,"horizon_s":60}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create on closed host -> %d", resp.StatusCode)
	}
}

// noFlushWriter hides the Flusher interface of the underlying recorder.
type noFlushWriter struct{ http.ResponseWriter }

func TestHTTPStreamWithoutFlusher(t *testing.T) {
	h := newTestHost(t, Config{})
	if _, err := h.Create(quickSpec("nf", 1)); err != nil {
		t.Fatalf("create: %v", err)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/missions/nf/stream", nil)
	h.Handler().ServeHTTP(noFlushWriter{rec}, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("stream without flusher -> %d", rec.Code)
	}
}

func TestRecoverIgnoresStrayEntries(t *testing.T) {
	dir := t.TempDir()
	// A stray file and a directory without meta.json are not parks.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "not-a-park"), 0o755); err != nil {
		t.Fatal(err)
	}
	h, err := New(Config{ParkDir: dir})
	if err != nil {
		t.Fatalf("New over stray entries: %v", err)
	}
	t.Cleanup(h.Close)
	if got := len(h.List()); got != 0 {
		t.Fatalf("recovered %d missions from stray entries", got)
	}
}

func TestRecoverRejectsCorruptMeta(t *testing.T) {
	for name, metas := range map[string][]string{
		"corrupt-json": {`{"spec":`},
		// "replay" is a retired park mode: parks are "checkpoint" or
		// "final" only.
		"unknown-mode": {
			`{"spec":{"id":"bad","uavs":2,"persons":2,"horizon_s":60},"mode":"wat"}`,
			`{"spec":{"id":"bad","uavs":2,"persons":2,"horizon_s":60},"mode":"replay","replay_ticks":7}`,
		},
	} {
		t.Run(name, func(t *testing.T) {
			for _, meta := range metas {
				dir := t.TempDir()
				pd := filepath.Join(dir, "bad")
				if err := os.MkdirAll(pd, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(pd, "meta.json"), []byte(meta), 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := New(Config{ParkDir: dir}); err == nil {
					t.Fatalf("New accepted corrupt park metadata %s", meta)
				}
			}
		})
	}
}

// TestScenarioDocMission drives the third Spec kind — an embedded
// scenario document — through create, park, and digest-after-wake.
func TestScenarioDocMission(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "multi_site.json"))
	if err != nil {
		t.Fatalf("read example scenario: %v", err)
	}
	spec := Spec{ID: "doc", Seed: 9, Scenario: json.RawMessage(raw), TickBudget: 4}
	if spec.Kind() != "scenario" {
		t.Fatalf("Kind = %q", spec.Kind())
	}

	// Reference: the same spec flown two rounds without interruption.
	ref := newTestHost(t, Config{})
	if _, err := ref.Create(spec); err != nil {
		t.Fatalf("create reference: %v", err)
	}
	ref.Round()
	ref.Round()
	want, err := ref.Digest("doc")
	if err != nil {
		t.Fatalf("reference digest: %v", err)
	}

	h := newTestHost(t, Config{})
	if _, err := h.Create(spec); err != nil {
		t.Fatalf("create: %v", err)
	}
	h.Round()
	h.Round()
	if err := h.Park("doc"); err != nil {
		t.Fatalf("Park: %v", err)
	}
	if info, _ := h.Info("doc"); info.State != "parked" {
		t.Fatalf("state after Park = %q", info.State)
	}
	// Digest wakes the parked mission and must match the uninterrupted run.
	got, err := h.Digest("doc")
	if err != nil {
		t.Fatalf("Digest after park: %v", err)
	}
	if got != want {
		t.Fatalf("scenario-doc digest diverged across park/wake:\n got %s\nwant %s", got, want)
	}
	if info, _ := h.Info("doc"); info.State != "running" {
		t.Fatalf("state after Digest wake = %q", info.State)
	}
}

// TestRehydrateFailsOnTamperedPark covers the rehydrate error paths: a
// missing black box and a checkpoint recorded under a different
// configuration both surface as Resume errors instead of silently
// reviving the wrong mission.
func TestRehydrateFailsOnTamperedPark(t *testing.T) {
	parkOne := func(t *testing.T, dir string) {
		t.Helper()
		h, err := New(Config{ParkDir: dir, TickBudget: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Create(quickSpec("tamper", 6)); err != nil {
			t.Fatal(err)
		}
		h.Round()
		if err := h.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("missing-box", func(t *testing.T) {
		dir := t.TempDir()
		parkOne(t, dir)
		if err := os.RemoveAll(filepath.Join(dir, "tamper", "box")); err != nil {
			t.Fatal(err)
		}
		h, err := New(Config{ParkDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Close)
		if err := h.Resume("tamper"); err == nil {
			t.Fatal("Resume succeeded with the black box deleted")
		}
		if _, err := h.Digest("tamper"); err == nil {
			t.Fatal("Digest succeeded with the black box deleted")
		}
	})

	t.Run("config-mismatch", func(t *testing.T) {
		dir := t.TempDir()
		parkOne(t, dir)
		metaPath := filepath.Join(dir, "tamper", "meta.json")
		raw, err := os.ReadFile(metaPath)
		if err != nil {
			t.Fatal(err)
		}
		var meta map[string]json.RawMessage
		if err := json.Unmarshal(raw, &meta); err != nil {
			t.Fatal(err)
		}
		var spec Spec
		if err := json.Unmarshal(meta["spec"], &spec); err != nil {
			t.Fatal(err)
		}
		spec.UAVs = 4 // rebuilt config no longer matches the checkpoint
		meta["spec"], _ = json.Marshal(spec)
		raw, _ = json.Marshal(meta)
		if err := os.WriteFile(metaPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		h, err := New(Config{ParkDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Close)
		if err := h.Resume("tamper"); err == nil {
			t.Fatal("Resume accepted a checkpoint from a different configuration")
		}
	})
}

func TestVictimPrefersFinishedMissions(t *testing.T) {
	h := newTestHost(t, Config{TickBudget: 8})
	if _, err := h.Create(quickSpec("short", 2)); err != nil {
		t.Fatal(err)
	}
	roundsUntilDone(t, h, "short", 2000)
	longSpec := quickSpec("long", 3)
	longSpec.HorizonS = 600
	if _, err := h.Create(longSpec); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	victim := h.victimLocked(nil)
	h.mu.Unlock()
	if victim == nil || victim.ID() != "short" {
		t.Fatalf("victim = %v, want finished mission short", victim)
	}
}
