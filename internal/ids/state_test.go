package ids

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sesame/internal/geo"
	"sesame/internal/mqttlite"
	"sesame/internal/rosbus"
	"sesame/internal/uavsim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/state.golden")

// scriptConfig is DefaultConfig plus an allow-list on both GPS topics.
func scriptConfig() Config {
	cfg := DefaultConfig()
	cfg.AllowedPublishers = map[string][]string{
		"/uav/u1/gps": {"u1"},
		"/uav/u2/gps": {"u2"},
	}
	return cfg
}

// scriptedStream is a 60 s two-UAV telemetry stream that trips every
// detection rule:
//   - t=5: an unauthorized node publishes on /uav/u1/gps;
//   - t=8: a burst on /uav/u1/cmd breaks the rate budget;
//   - t=11..30 and t>=36: u2 goes quiet (link silence), with fresh
//     traffic at t=31..35 re-arming the rule in between;
//   - t=15: u1 reports a lost fix;
//   - t=20..26: u1's GPS drifts away from its odometry (spoofing);
//   - t=45: u1's fix jumps 600 m for one second (teleport).
//
// It also carries a non-UAV topic and a status-only UAV (u3), so the
// state holds odometry without a fix and topics without a UAV.
func scriptedStream() []rosbus.Message {
	var msgs []rosbus.Message
	add := func(topic, pub string, stamp float64, payload interface{}) {
		msgs = append(msgs, rosbus.Message{Topic: topic, Publisher: pub, Stamp: stamp, Payload: payload})
	}
	for ts := 1.0; ts <= 60; ts++ {
		for _, uav := range []string{"u1", "u2"} {
			if uav == "u2" && (ts > 10 && ts <= 30 || ts >= 36) {
				continue
			}
			bearing := 90.0
			if uav == "u2" {
				bearing = 0
			}
			truth := geo.Destination(origin, bearing, ts*5)
			fix := uavsim.GPSFix{UAV: uav, Position: truth, Quality: uavsim.GPSRTK, Satellites: 20, Stamp: ts}
			switch {
			case uav != "u1":
			case ts == 15:
				fix.Quality = uavsim.GPSLost
			case ts >= 20 && ts <= 26:
				fix.Position = geo.Destination(truth, 180, (ts-19)*4)
			case ts == 45:
				fix.Position = geo.Destination(truth, 0, 600)
			}
			add("/uav/"+uav+"/status", uav, ts, uavsim.StatusReport{UAV: uav, Position: truth, Stamp: ts})
			add("/uav/"+uav+"/gps", uav, ts, fix)
			add("/uav/"+uav+"/battery", uav, ts, uavsim.BatteryState{UAV: uav, ChargePct: 100 - ts, Stamp: ts})
		}
		if ts == 5 {
			add("/uav/u1/gps", "evil", ts, uavsim.GPSFix{UAV: "u1", Position: origin, Quality: uavsim.GPSRTK, Stamp: ts})
		}
		if ts == 8 {
			for k := 0; k < 15; k++ {
				add("/uav/u1/cmd", "gcs", ts+float64(k)*0.05, "goto")
			}
		}
		if int(ts)%10 == 0 {
			add("/gcs/heartbeat", "gcs", ts, "alive")
			add("/uav/u3/status", "u3", ts, uavsim.StatusReport{UAV: "u3", Position: origin, Stamp: ts})
		}
	}
	return msgs
}

// feed injects msgs into a fresh bus watched by an IDS restored from
// from (when non-nil) and returns the IDS.
func feed(t *testing.T, from *State, msgs []rosbus.Message) *IDS {
	t.Helper()
	bus := rosbus.NewBus()
	d, err := New(bus, mqttlite.NewBroker(), scriptConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if from != nil {
		d.Restore(*from)
	}
	for _, m := range msgs {
		if err := bus.Inject(m); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestStateGolden pins the checkpoint bytes of the detection state
// after the scripted stream. Regenerate only on a deliberate format
// change: go test ./internal/ids -run TestStateGolden -update
func TestStateGolden(t *testing.T) {
	d := feed(t, nil, scriptedStream())
	types := map[string]bool{}
	for _, a := range d.Alerts() {
		types[a.Type] = true
	}
	for _, want := range []string{AlertUnauthorizedNode, AlertMessageInjection, AlertGPSAnomaly, AlertTeleport, AlertLinkSilence} {
		if !types[want] {
			t.Errorf("scripted stream raised no %s alert", want)
		}
	}
	got, err := json.Marshal(d.State())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "state.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("State() JSON differs from %s:\n got %s\nwant %s", path, got, want)
	}
}

// TestRestoreMidStream checks that checkpointing the state between two
// stamps and continuing on a fresh IDS raises exactly the alerts an
// uninterrupted run raises, at every cut point.
func TestRestoreMidStream(t *testing.T) {
	msgs := scriptedStream()
	want := feed(t, nil, msgs).Alerts()
	for cut := 1; cut < len(msgs); cut++ {
		if msgs[cut].Stamp == msgs[cut-1].Stamp {
			continue
		}
		first := feed(t, nil, msgs[:cut])
		raw, err := json.Marshal(first.State())
		if err != nil {
			t.Fatal(err)
		}
		var s State
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatal(err)
		}
		got := feed(t, &s, msgs[cut:]).Alerts()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut before message %d (t=%g): alerts differ\n got %+v\nwant %+v", cut, msgs[cut].Stamp, got, want)
		}
	}
}

// randomState builds a detection state with arbitrary key sets,
// including HasOdo=false entries, odometry without a HasOdo entry, and
// HasOdo entries without odometry.
func randomState(rng *rand.Rand) State {
	s := State{
		Arrival:  map[string][]float64{},
		LastSeen: map[string]float64{},
		LastGPS:  map[string]uavsim.GPSFix{},
		LastOdo:  map[string]geo.LatLng{},
		HasOdo:   map[string]bool{},
		LastHit:  map[string]float64{},
	}
	uavs := []string{"u1", "u2", "u3", "", "x"}
	topics := []string{"/uav/u1/gps", "/uav/u2/status", "/uav/u3/cmd", "/gcs/heartbeat", "/uav/x"}
	for i := rng.Intn(3); i > 0; i-- {
		s.Alerts = append(s.Alerts, Alert{Type: AlertTeleport, UAV: uavs[rng.Intn(len(uavs))], Stamp: rng.Float64()})
	}
	for _, topic := range topics {
		if rng.Intn(2) == 0 {
			n := 1 + rng.Intn(4)
			for k := 0; k < n; k++ {
				s.Arrival[topic] = append(s.Arrival[topic], rng.Float64()*100)
			}
		}
		if rng.Intn(2) == 0 {
			s.LastSeen[topic] = rng.Float64() * 100
		}
	}
	for _, uav := range uavs {
		if rng.Intn(2) == 0 {
			s.LastGPS[uav] = uavsim.GPSFix{UAV: uav, Position: geo.LatLng{Lat: rng.Float64(), Lng: rng.Float64()}, Quality: uavsim.GPSQuality(rng.Intn(4)), Stamp: rng.Float64()}
		}
		if rng.Intn(2) == 0 {
			s.LastOdo[uav] = geo.LatLng{Lat: rng.Float64(), Lng: rng.Float64()}
		}
		if rng.Intn(2) == 0 {
			s.HasOdo[uav] = rng.Intn(2) == 0
		}
		if rng.Intn(2) == 0 {
			s.LastHit[AlertGPSAnomaly+"|"+uav] = rng.Float64()
		}
	}
	return s
}

// TestStateRestoreRoundTrip is the property State(Restore(s)) == s.
func TestStateRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 500; i++ {
		s := randomState(rng)
		d, err := New(rosbus.NewBus(), mqttlite.NewBroker(), scriptConfig())
		if err != nil {
			t.Fatal(err)
		}
		d.Restore(s)
		if got := d.State(); !reflect.DeepEqual(got, s) {
			t.Fatalf("case %d: State(Restore(s)) != s\n got %+v\nwant %+v", i, got, s)
		}
		d.Close()
	}
}
