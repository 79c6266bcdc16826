package linksim

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"sesame/internal/rosbus"
	"sesame/internal/simclock"
)

// fuzzRig is one clock + bus + layer carrying a single faulted link,
// with a recording subscriber.
type fuzzRig struct {
	clock *simclock.Clock
	bus   *rosbus.Bus
	layer *Layer
	lk    *Link
	pub   *rosbus.Publisher
	got   *[]string
}

func newFuzzRig(clock *simclock.Clock, prof Profile, got *[]string) *fuzzRig {
	r := &fuzzRig{clock: clock, bus: rosbus.NewBus(), got: got}
	r.layer = New(clock, "fuzz")
	r.layer.AttachBus(r.bus)
	r.lk = r.layer.Link("u1")
	r.lk.SetProfile(prof)
	r.pub, _ = r.bus.Advertise("/uav/u1/status", "u1")
	_, _ = r.bus.Subscribe("/uav/u1/status", func(m rosbus.Message) {
		*r.got = append(*r.got, m.Payload.(string))
	})
	return r
}

// FuzzLinkQueue drives an arbitrary profile and publish/advance
// schedule through the reorder/delay queue and checks the structural
// invariants the platform depends on: no frame is ever stranded after
// a drain, the conservation law holds, the bus sees exactly the
// frames the link claims to have delivered, and a replay of the same
// input is bit-identical. It also checkpoints the layer at a
// fuzz-chosen operation — State through JSON into a fresh layer on a
// fresh clock with the same seed — and requires the resumed run to
// deliver exactly what the uninterrupted one does.
func FuzzLinkQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{255, 0, 0, 0, 0, 0, 1, 1, 1, 1})
	f.Add([]byte{0, 255, 128, 10, 200, 255, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{40, 40, 200, 30, 90, 200, 2, 2, 2, 2, 2, 2, 2, 2})

	// run flies the schedule, moving it onto a restored rig before
	// operation cut (no checkpoint when cut < 0). busDelivered counts
	// the final rig's bus only.
	run := func(t *testing.T, data []byte, cut int) ([]string, LinkStats, uint64) {
		prof := Profile{
			DropProb:    float64(data[0]) / 512, // cap at ~0.5 so traffic flows
			DupProb:     float64(data[1]) / 256,
			DelayProb:   float64(data[2]) / 256,
			DelayMinS:   float64(data[3]) / 32,
			DelayMaxS:   float64(data[4]) / 32,
			ReorderProb: float64(data[5]) / 256,
			HoldMaxS:    1 + float64(data[3])/64,
		}
		var got []string
		r := newFuzzRig(simclock.New(1234), prof, &got)
		n := 0
		for i, op := range data[6:] {
			if i == cut {
				st, err := r.layer.State()
				if err != nil {
					t.Fatal(err)
				}
				blob, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				var back State
				if err := json.Unmarshal(blob, &back); err != nil {
					t.Fatal(err)
				}
				clock := simclock.New(1234)
				clock.RestoreStreams(r.clock.StreamStates())
				clock.SetNow(r.clock.Now())
				r = newFuzzRig(clock, prof, &got)
				if err := r.layer.Restore(back, decodeString); err != nil {
					t.Fatal(err)
				}
			}
			if op%3 == 0 {
				r.clock.AdvanceTo(r.clock.Now() + float64(op%16)/4)
				continue
			}
			n++
			_ = r.pub.Publish(r.clock.Now(), fmt.Sprintf("m%d", n))
		}
		// Drain: every queued frame must release within the longest
		// delay/hold horizon. SetProfile normalizes DelayMaxS up to
		// DelayMinS, so the horizon must use the larger of the two.
		horizon := prof.DelayMaxS
		if prof.DelayMinS > horizon {
			horizon = prof.DelayMinS
		}
		r.clock.AdvanceTo(r.clock.Now() + horizon + prof.HoldMaxS + 1)
		return got, r.lk.Stats(), r.bus.Stats().Delivered
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 || len(data) > 512 {
			return
		}
		got, s, busDelivered := run(t, data, -1)
		if s.Pending != 0 {
			t.Fatalf("stranded frames after drain: %+v", s)
		}
		if s.Offered+s.Duplicated != s.Delivered+s.Dropped+s.Rejected {
			t.Fatalf("conservation violated: %+v", s)
		}
		if uint64(len(got)) != s.Delivered {
			t.Fatalf("subscriber saw %d frames, link claims %d", len(got), s.Delivered)
		}
		if busDelivered != s.Delivered {
			t.Fatalf("bus delivered %d, link claims %d", busDelivered, s.Delivered)
		}
		got2, s2, _ := run(t, data, -1)
		if !reflect.DeepEqual(got, got2) || s != s2 {
			t.Fatalf("replay diverged: %v/%+v vs %v/%+v", got, s, got2, s2)
		}
		cut := int(data[len(data)-1]) % (len(data) - 6)
		got3, s3, _ := run(t, data, cut)
		if !reflect.DeepEqual(got, got3) || s != s3 {
			t.Fatalf("checkpoint at op %d diverged: %v/%+v vs %v/%+v", cut, got3, s3, got, s)
		}
	})
}
