package linksim

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sesame/internal/mqttlite"
	"sesame/internal/rosbus"
	"sesame/internal/simclock"
)

// rig is one bus + clock + layer with a recording subscriber.
type rig struct {
	clock *simclock.Clock
	bus   *rosbus.Bus
	layer *Layer
	pub   *rosbus.Publisher
	got   []string
}

func newRig(t *testing.T, seed int64) *rig {
	t.Helper()
	r := &rig{clock: simclock.New(seed), bus: rosbus.NewBus()}
	r.layer = New(r.clock, "test")
	r.layer.AttachBus(r.bus)
	var err error
	r.pub, err = r.bus.Advertise("/uav/u1/status", "u1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.bus.Subscribe("/uav/u1/status", func(m rosbus.Message) {
		r.got = append(r.got, m.Payload.(string))
	}); err != nil {
		t.Fatal(err)
	}
	return r
}

func checkConservation(t *testing.T, s LinkStats) {
	t.Helper()
	if s.Offered+s.Duplicated != s.Delivered+s.Dropped+s.Rejected+s.Pending {
		t.Fatalf("conservation violated: %+v", s)
	}
}

func TestPassThroughWithoutLink(t *testing.T) {
	r := newRig(t, 1)
	// No link configured for "u1": the layer must be invisible.
	for i := 0; i < 5; i++ {
		if err := r.pub.Publish(float64(i), fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.got) != 5 {
		t.Fatalf("pass-through delivered %d, want 5", len(r.got))
	}
	if len(r.layer.Links()) != 0 {
		t.Fatal("no link should have been created")
	}
}

func TestPerfectLinkIsTransparent(t *testing.T) {
	r := newRig(t, 1)
	lk := r.layer.Link("u1")
	for i := 0; i < 5; i++ {
		if err := r.pub.Publish(float64(i), fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.got) != 5 {
		t.Fatalf("perfect link delivered %d, want 5", len(r.got))
	}
	s := lk.Stats()
	if s.Offered != 5 || s.Delivered != 5 || s.Dropped+s.Rejected+s.Pending != 0 {
		t.Fatalf("stats = %+v", s)
	}
	checkConservation(t, s)
}

func TestDropAll(t *testing.T) {
	r := newRig(t, 1)
	lk := r.layer.Link("u1")
	lk.SetProfile(Profile{DropProb: 1})
	for i := 0; i < 10; i++ {
		if err := r.pub.Publish(float64(i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.got) != 0 {
		t.Fatalf("lossy link leaked %d messages", len(r.got))
	}
	s := lk.Stats()
	if s.Dropped != 10 || s.Offered != 10 {
		t.Fatalf("stats = %+v", s)
	}
	checkConservation(t, s)
}

func TestOutageWindows(t *testing.T) {
	r := newRig(t, 1)
	lk := r.layer.Link("u1")
	lk.AddOutage(2, 4)       // silent loss for t in [2,4)
	lk.AddRejectOutage(6, 8) // rejecting for t in [6,8)
	for i := 0; i < 10; i++ {
		r.clock.AdvanceTo(float64(i))
		err := r.pub.Publish(float64(i), fmt.Sprintf("m%d", i))
		switch {
		case i >= 6 && i < 8:
			if !errors.Is(err, ErrLinkDown) {
				t.Fatalf("t=%d err=%v, want ErrLinkDown", i, err)
			}
		default:
			if err != nil {
				t.Fatalf("t=%d unexpected err %v", i, err)
			}
		}
	}
	want := []string{"m0", "m1", "m4", "m5", "m8", "m9"}
	if !reflect.DeepEqual(r.got, want) {
		t.Fatalf("got %v want %v", r.got, want)
	}
	s := lk.Stats()
	if s.OutageDropped != 2 || s.Dropped != 2 || s.Rejected != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if !lk.DownNow(3) || lk.DownNow(5) {
		t.Fatal("DownNow window check failed")
	}
	checkConservation(t, s)
}

func TestDownAtIsPermanent(t *testing.T) {
	r := newRig(t, 1)
	lk := r.layer.Link("u1")
	lk.DownAt(5)
	r.clock.AdvanceTo(4)
	_ = r.pub.Publish(4, "before")
	r.clock.AdvanceTo(1000)
	_ = r.pub.Publish(1000, "after")
	if !reflect.DeepEqual(r.got, []string{"before"}) {
		t.Fatalf("got %v", r.got)
	}
}

func TestDelayReleasesThroughClock(t *testing.T) {
	r := newRig(t, 1)
	lk := r.layer.Link("u1")
	lk.SetProfile(Profile{DelayProb: 1, DelayMinS: 2, DelayMaxS: 3})
	if err := r.pub.Publish(0, "late"); err != nil {
		t.Fatal(err)
	}
	if len(r.got) != 0 {
		t.Fatal("delayed frame delivered inline")
	}
	if got := lk.Stats().Pending; got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
	r.clock.AdvanceTo(1.9)
	if len(r.got) != 0 {
		t.Fatal("frame released before DelayMinS")
	}
	r.clock.AdvanceTo(3.1)
	if !reflect.DeepEqual(r.got, []string{"late"}) {
		t.Fatalf("got %v", r.got)
	}
	s := lk.Stats()
	if s.Delayed != 1 || s.Delivered != 1 || s.Pending != 0 {
		t.Fatalf("stats = %+v", s)
	}
	checkConservation(t, s)
}

func TestDuplication(t *testing.T) {
	r := newRig(t, 1)
	lk := r.layer.Link("u1")
	lk.SetProfile(Profile{DupProb: 1})
	if err := r.pub.Publish(0, "twin"); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.got, []string{"twin", "twin"}) {
		t.Fatalf("got %v", r.got)
	}
	s := lk.Stats()
	if s.Duplicated != 1 || s.Delivered != 2 {
		t.Fatalf("stats = %+v", s)
	}
	checkConservation(t, s)
}

func TestReorderSwapsAdjacentFrames(t *testing.T) {
	r := newRig(t, 1)
	lk := r.layer.Link("u1")
	lk.SetProfile(Profile{ReorderProb: 1, HoldMaxS: 100})
	for i := 0; i < 4; i++ {
		if err := r.pub.Publish(float64(i), fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// With ReorderProb=1 every other frame is held and released by its
	// successor: pairwise swaps.
	want := []string{"m1", "m0", "m3", "m2"}
	if !reflect.DeepEqual(r.got, want) {
		t.Fatalf("got %v want %v", r.got, want)
	}
	s := lk.Stats()
	if s.Reordered != 2 || s.Delivered != 4 || s.Pending != 0 {
		t.Fatalf("stats = %+v", s)
	}
	checkConservation(t, s)
}

func TestReorderFailsafeReleasesHeldFrame(t *testing.T) {
	r := newRig(t, 1)
	lk := r.layer.Link("u1")
	lk.SetProfile(Profile{ReorderProb: 1, HoldMaxS: 5})
	if err := r.pub.Publish(0, "only"); err != nil {
		t.Fatal(err)
	}
	if len(r.got) != 0 {
		t.Fatal("held frame delivered early")
	}
	// No successor ever arrives; the fail-safe timer must deliver it.
	r.clock.AdvanceTo(10)
	if !reflect.DeepEqual(r.got, []string{"only"}) {
		t.Fatalf("got %v", r.got)
	}
	s := lk.Stats()
	if s.Pending != 0 || s.Delivered != 1 {
		t.Fatalf("stats = %+v", s)
	}
	checkConservation(t, s)
}

// TestDeterministicReplay is the linksim determinism contract: the same
// seed, profile and traffic produce a bit-identical delivery sequence
// and stats.
func TestDeterministicReplay(t *testing.T) {
	run := func() ([]string, LinkStats) {
		r := newRig(t, 99)
		lk := r.layer.Link("u1")
		lk.SetProfile(Profile{
			DropProb: 0.2, DupProb: 0.15, DelayProb: 0.3,
			DelayMinS: 0.5, DelayMaxS: 2.5, ReorderProb: 0.2,
		})
		for i := 0; i < 200; i++ {
			r.clock.AdvanceTo(float64(i))
			_ = r.pub.Publish(float64(i), fmt.Sprintf("m%d", i))
		}
		r.clock.AdvanceTo(300)
		s := lk.Stats()
		checkConservation(t, s)
		if s.Pending != 0 {
			t.Fatalf("frames still pending after drain: %+v", s)
		}
		return r.got, s
	}
	got1, s1 := run()
	got2, s2 := run()
	if !reflect.DeepEqual(got1, got2) {
		t.Fatal("same seed produced different delivery sequences")
	}
	if s1 != s2 {
		t.Fatalf("same seed produced different stats: %+v vs %+v", s1, s2)
	}
	if s1.Dropped == 0 || s1.Delayed == 0 || s1.Duplicated == 0 || s1.Reordered == 0 {
		t.Fatalf("profile did not exercise every impairment: %+v", s1)
	}
}

// TestDifferentSeedsDiverge guards against an accidentally constant RNG.
func TestDifferentSeedsDiverge(t *testing.T) {
	run := func(seed int64) []string {
		r := newRig(t, seed)
		r.layer.Link("u1").SetProfile(Profile{DropProb: 0.5})
		for i := 0; i < 50; i++ {
			_ = r.pub.Publish(float64(i), fmt.Sprintf("m%d", i))
		}
		return r.got
	}
	if reflect.DeepEqual(run(1), run(2)) {
		t.Fatal("different seeds produced identical loss patterns")
	}
}

func TestBrokerAttachRoutesAlertTraffic(t *testing.T) {
	clock := simclock.New(7)
	layer := New(clock, "test")
	broker := mqttlite.NewBroker()
	layer.AttachBroker(broker, func(topic string) string {
		if topic == "alerts/ids/u2" {
			return "u2"
		}
		return ""
	})
	var got []string
	_, _ = broker.Subscribe("alerts/#", func(m mqttlite.Message) {
		got = append(got, m.Topic+":"+string(m.Payload))
	})
	lk := layer.Link("u2")
	lk.AddOutage(0, 10)
	if err := broker.Publish("alerts/ids/u2", []byte("a"), false); err != nil {
		t.Fatal(err)
	}
	if err := broker.Publish("alerts/ids/u1", []byte("b"), false); err != nil {
		t.Fatal(err)
	}
	clock.AdvanceTo(20)
	if err := broker.Publish("alerts/ids/u2", []byte("c"), false); err != nil {
		t.Fatal(err)
	}
	want := []string{"alerts/ids/u1:b", "alerts/ids/u2:c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	s := lk.Stats()
	if s.OutageDropped != 1 || s.Delivered != 1 {
		t.Fatalf("stats = %+v", s)
	}
	checkConservation(t, s)
}

func TestLayerStatsSnapshot(t *testing.T) {
	r := newRig(t, 1)
	r.layer.Link("u1").SetProfile(Profile{DropProb: 1})
	r.layer.Link("u2")
	_ = r.pub.Publish(0, "x")
	all := r.layer.Stats()
	if len(all) != 2 || all["u1"].Dropped != 1 || all["u2"].Offered != 0 {
		t.Fatalf("layer stats = %+v", all)
	}
	if !reflect.DeepEqual(r.layer.Links(), []string{"u1", "u2"}) {
		t.Fatalf("Links() = %v", r.layer.Links())
	}
}

// decodeString is the payload decoder for the string frames the tests
// publish.
func decodeString(_ string, raw json.RawMessage) (any, error) {
	var s string
	err := json.Unmarshal(raw, &s)
	return s, err
}

// TestCheckpointCarriesFramesInFlight round-trips a layer holding a
// delayed bus frame, a held bus frame and a delayed broker frame
// through JSON onto a fresh rig, and requires the restored layer to
// release exactly what the donor releases, at the same clock readings.
func TestCheckpointCarriesFramesInFlight(t *testing.T) {
	type world struct {
		r      *rig
		broker *mqttlite.Broker
		times  []float64
	}
	build := func() *world {
		w := &world{r: newRig(t, 3), broker: mqttlite.NewBroker()}
		w.r.layer.AttachBroker(w.broker, func(topic string) string { return "u1" })
		if _, err := w.broker.Subscribe("alerts/#", func(m mqttlite.Message) {
			w.r.got = append(w.r.got, m.Topic+":"+string(m.Payload))
			w.times = append(w.times, w.r.clock.Now())
		}); err != nil {
			t.Fatal(err)
		}
		return w
	}
	donor := build()
	lk := donor.r.layer.Link("u1")
	lk.SetProfile(Profile{DelayProb: 1, DelayMinS: 1, DelayMaxS: 3})
	_ = donor.r.pub.Publish(0, "delayed")
	_ = donor.broker.Publish("alerts/ids/u1", []byte("alert"), false)
	lk.SetProfile(Profile{ReorderProb: 1, HoldMaxS: 2})
	_ = donor.r.pub.Publish(0, "held")
	lk.SetProfile(Profile{})

	st, err := donor.r.layer.State()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Frames) != 3 || st.Links["u1"].Pending != 3 {
		t.Fatalf("state = %+v", st)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back State
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	resumed := build()
	resumed.r.layer.Link("u1")
	if err := resumed.r.layer.Restore(back, decodeString); err != nil {
		t.Fatal(err)
	}
	for _, w := range []*world{donor, resumed} {
		w.r.clock.AdvanceTo(1.5)
		_ = w.r.pub.Publish(1.5, "inline")
		w.r.clock.AdvanceTo(10)
	}
	if !reflect.DeepEqual(donor.r.got, resumed.r.got) || !reflect.DeepEqual(donor.times, resumed.times) {
		t.Fatalf("restored layer diverges: %v at %v vs %v at %v",
			resumed.r.got, resumed.times, donor.r.got, donor.times)
	}
	if a, b := donor.r.layer.Stats(), resumed.r.layer.Stats(); !reflect.DeepEqual(a, b) {
		t.Fatalf("stats diverge: %+v vs %+v", b, a)
	}
	checkConservation(t, resumed.r.layer.Link("u1").Stats())
}

// TestReleaseTiming pins the release contract the world step relies
// on: a queued frame is delivered with the clock reading its due time,
// and a frame queued by that delivery, due before the step's end, is
// released within the same advance.
func TestReleaseTiming(t *testing.T) {
	r := newRig(t, 1)
	r.layer.Link("u1").SetProfile(Profile{DelayProb: 1, DelayMinS: 0.25, DelayMaxS: 0.25})
	var at []float64
	if _, err := r.bus.Subscribe("/uav/u1/status", func(m rosbus.Message) {
		at = append(at, r.clock.Now())
		if m.Payload == "first" {
			_ = r.pub.Publish(r.clock.Now(), "second")
		}
	}); err != nil {
		t.Fatal(err)
	}
	_ = r.pub.Publish(0, "first")
	r.clock.AdvanceTo(1)
	if !reflect.DeepEqual(r.got, []string{"first", "second"}) || !reflect.DeepEqual(at, []float64{0.25, 0.5}) {
		t.Fatalf("delivered %v at %v, want [first second] at [0.25 0.5]", r.got, at)
	}
	if r.clock.Now() != 1 {
		t.Fatalf("clock at %v after the advance, want 1", r.clock.Now())
	}
}
