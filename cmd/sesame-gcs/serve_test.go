package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"sesame"
)

// TestFeedMatchesPlatformHandler proves the copy-on-write feed is
// byte-compatible with the platform's own HTTP handler: same status
// document, same event history, with and without the ?uav= filter.
func TestFeedMatchesPlatformHandler(t *testing.T) {
	g, err := newGCS(defaultGCSOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer g.p.Close()
	for i := 0; i < 40; i++ {
		if err := g.tick(); err != nil {
			t.Fatal(err)
		}
	}

	legacy := sesame.PlatformHandler(g.p)
	for _, path := range []string{"/", "/events", "/events?uav=u1", "/events?uav=nobody"} {
		want := httptest.NewRecorder()
		legacy.ServeHTTP(want, httptest.NewRequest("GET", path, nil))
		got := httptest.NewRecorder()
		g.handler().ServeHTTP(got, httptest.NewRequest("GET", path, nil))
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("GET %s: feed diverged from platform handler:\n got %s\nwant %s",
				path, truncate(got.Body.String()), truncate(want.Body.String()))
		}
	}
}

// TestFeedLockFree proves the JSON feed is served even while the tick
// mutex is held: watchers read the published snapshot, never the
// platform.
func TestFeedLockFree(t *testing.T) {
	g, err := newGCS(defaultGCSOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer g.p.Close()

	g.mu.Lock()
	defer g.mu.Unlock()
	for _, path := range []string{"/", "/events"} {
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			g.handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("GET %s blocked on the tick mutex", path)
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s under held tick lock: status %d", path, rec.Code)
		}
	}
}

func TestParseArgsMultiRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-multi", "-spoof", "30"},
		{"-multi", "-blackbox", "box"},
		{"-multi", "-max-live", "0"},
		{"-multi", "-tick-budget", "0"},
		{"-multi", "-idle-rounds", "-1"},
	} {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("parseArgs(%v) must fail", args)
		}
	}
	o, err := parseArgs([]string{"-multi", "-park-dir", "p", "-max-live", "8"})
	if err != nil {
		t.Fatal(err)
	}
	if !o.multi || o.parkDir != "p" || o.maxLive != 8 || o.maxMissions != 4096 {
		t.Fatalf("multi flags not applied: %+v", o)
	}
}

// syncBuffer is a goroutine-safe writer the serve loop logs into.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var addrRE = regexp.MustCompile(`on (127\.0\.0\.1:\d+)`)

// startServe runs serve in the background on an ephemeral port and
// waits for the listening line; the returned channel delivers serve's
// error after a stop signal.
func startServe(t *testing.T, opts gcsOptions, out *syncBuffer, stop chan os.Signal) (string, chan error) {
	t.Helper()
	errCh := make(chan error, 1)
	go func() { errCh <- serve(opts, out, stop) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			return m[1], errCh
		}
		select {
		case err := <-errCh:
			t.Fatalf("serve exited before listening: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never printed its address:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeSingleGracefulShutdown sends the station a stop signal and
// expects a clean exit: serve returns nil (the process would exit 0).
func TestServeSingleGracefulShutdown(t *testing.T) {
	opts := defaultGCSOptions()
	opts.addr = "127.0.0.1:0"
	opts.tickMS = 10
	out := &syncBuffer{}
	stop := make(chan os.Signal, 1)
	addr, errCh := startServe(t, opts, out, stop)

	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatalf("GET /: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET / -> %d", resp.StatusCode)
	}

	stop <- os.Interrupt
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not stop after the signal")
	}
	if !strings.Contains(out.String(), "stopped") {
		t.Fatalf("no stop confirmation in output:\n%s", out.String())
	}
}

// TestServeMultiKillRestartRoundTrip is the CLI-level recovery check:
// a multi-mission station is stopped with live missions on board, and
// a fresh station over the same -park-dir recovers every one of them,
// parked at the tick they were checkpointed at, flyable to completion.
func TestServeMultiKillRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := defaultGCSOptions()
	opts.addr = "127.0.0.1:0"
	opts.tickMS = 5
	opts.multi = true
	opts.parkDir = dir
	opts.tickBudget = 2

	out := &syncBuffer{}
	stop := make(chan os.Signal, 1)
	addr, errCh := startServe(t, opts, out, stop)

	// Create a couple of missions and let them fly a little.
	for i := 1; i <= 3; i++ {
		body := fmt.Sprintf(`{"id":"m%d","seed":%d,"uavs":2,"persons":2,"horizon_s":300}`, i, i)
		resp, err := http.Post("http://"+addr+"/missions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST mission: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST mission m%d -> %d", i, resp.StatusCode)
		}
	}
	// Wait until every mission has ticked: one created after a round
	// has started may still be at tick 0 when m1 first advances.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/missions")
		if err != nil {
			t.Fatal(err)
		}
		var list []sesame.MissionInfo
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		advanced := 0
		for _, info := range list {
			if info.Tick > 0 {
				advanced++
			}
		}
		if advanced == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("missions never advanced")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Kill the station.
	stop <- os.Interrupt
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("multi shutdown returned %v, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("multi serve did not stop after the signal")
	}

	// Restart over the same park directory: the fleet comes back.
	out2 := &syncBuffer{}
	stop2 := make(chan os.Signal, 1)
	addr2, errCh2 := startServe(t, opts, out2, stop2)
	resp, err := http.Get("http://" + addr2 + "/missions")
	if err != nil {
		t.Fatal(err)
	}
	var list []sesame.MissionInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 3 {
		t.Fatalf("recovered %d missions, want 3: %+v", len(list), list)
	}
	for _, info := range list {
		if info.State != "parked" {
			t.Errorf("recovered mission %s state = %q, want parked", info.ID, info.State)
		}
		if info.Tick == 0 {
			t.Errorf("recovered mission %s lost its progress", info.ID)
		}
	}
	// A status read answers from the persisted snapshot — parked
	// missions stay parked until a watcher subscribes.
	resp, err = http.Get("http://" + addr2 + "/missions/m1/status")
	if err != nil {
		t.Fatal(err)
	}
	var snap sesame.MissionSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Tick == 0 {
		t.Fatalf("status after restart = %+v", snap)
	}

	stop2 <- os.Interrupt
	select {
	case err := <-errCh2:
		if err != nil {
			t.Fatalf("second shutdown returned %v, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("second serve did not stop after the signal")
	}
}
