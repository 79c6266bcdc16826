// Package linksim is a deterministic per-link fault layer for the
// in-process comms substitutes (rosbus, mqttlite). The paper's platform
// (§IV-A) runs over a real radio link between the vehicles and the
// ground station; linksim reproduces the failure modes of that link —
// message drop, delay, duplication, reordering and scheduled outage
// windows — the way FlyNetSim-style evaluation stacks put an explicit
// lossy network between UAV and GCS.
//
// Determinism contract: every stochastic draw comes from a per-link
// seeded simclock stream, draws happen in a fixed order per frame, and
// delayed and held frames wait in the layer's own queue, released in
// (due time, sequence) order as the world advances. A run with the
// same seed and the same fault schedule is therefore bit-identical,
// the comms analogue of uavsim.ScheduleFault. The queue is plain data,
// so a checkpoint taken at any tick boundary carries the frames in
// flight (State, Restore).
package linksim

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"sesame/internal/mqttlite"
	"sesame/internal/obsv"
	"sesame/internal/rosbus"
	"sesame/internal/simclock"
)

// ErrLinkDown is surfaced to publishers whose frame hit a rejecting
// outage window (a link that refuses traffic rather than eating it).
var ErrLinkDown = errors.New("linksim: link down")

// Profile sets the steady-state stochastic impairments of one link.
// The zero Profile is a perfect link. The JSON tags are the campaign
// sweep-spec serialization (omitempty keeps unimpaired axes out of
// spec dumps and manifests).
type Profile struct {
	DropProb    float64 `json:"drop_prob,omitempty"`    // P(frame silently lost)
	DupProb     float64 `json:"dup_prob,omitempty"`     // P(frame delivered twice)
	DelayProb   float64 `json:"delay_prob,omitempty"`   // P(frame queued and released later)
	DelayMinS   float64 `json:"delay_min_s,omitempty"`  // uniform delay window, seconds
	DelayMaxS   float64 `json:"delay_max_s,omitempty"`  //
	ReorderProb float64 `json:"reorder_prob,omitempty"` // P(frame held to swap with the next one)
	HoldMaxS    float64 `json:"hold_max_s,omitempty"`   // fail-safe release for held frames (default 1s)
}

// LinkStats counts one link's frame fates. The conservation invariant
// Offered + Duplicated == Delivered + Dropped + Rejected + Pending
// holds at every tick boundary (OutageDropped, Delayed and Reordered
// are sub-classifications, not invariant terms).
type LinkStats struct {
	Offered       uint64 `json:"offered"`
	Delivered     uint64 `json:"delivered"`
	Dropped       uint64 `json:"dropped"`
	OutageDropped uint64 `json:"outage_dropped"`
	Rejected      uint64 `json:"rejected"`
	Delayed       uint64 `json:"delayed"`
	Duplicated    uint64 `json:"duplicated"`
	Reordered     uint64 `json:"reordered"`
	Pending       uint64 `json:"pending"`
}

type outage struct {
	from, to float64
	reject   bool
}

// Frame is one frame crossing a link. A bus frame carries the bus
// message's topic, publisher, sequence number, stamp and payload (as
// JSON in Msg within a checkpoint); a broker frame carries its topic
// and raw Payload. Due, Seq and Copies order and size a queued
// frame's release; a Held frame waits for a later frame to overtake
// it, Due being its fail-safe release. The queue holds Frames, so a
// checkpoint (State) is a copy of it.
type Frame struct {
	Due       float64         `json:"due"`
	Seq       uint64          `json:"seq"`
	Link      string          `json:"link"`
	Copies    int             `json:"copies"`
	Held      bool            `json:"held,omitempty"`
	Bus       bool            `json:"bus,omitempty"`
	Topic     string          `json:"topic"`
	Publisher string          `json:"publisher,omitempty"`
	MsgSeq    uint64          `json:"msg_seq,omitempty"`
	Stamp     float64         `json:"stamp,omitempty"`
	Msg       json.RawMessage `json:"msg,omitempty"`
	Payload   []byte          `json:"payload,omitempty"`

	value any // a queued bus frame's payload
	link  *Link
}

// Link is one logical radio link (conventionally one per UAV node
// name). All methods are safe for concurrent use.
type Link struct {
	layer   *Layer
	name    string
	rng     *rand.Rand
	profile Profile
	outages []outage
	held    *Frame
	stats   LinkStats
	m       linkMetrics
}

// linkMetrics holds the link's resolved observability counters. All
// fields are nil (no-op) until Layer.Instrument installs a registry.
type linkMetrics struct {
	offered, delivered, dropped, outageDropped *obsv.Counter
	rejected, delayed, duplicated, reordered   *obsv.Counter
}

// Layer multiplexes links over a bus and/or broker. The zero value is
// not usable; call New.
type Layer struct {
	mu     sync.Mutex
	clock  *simclock.Clock
	name   string
	links  map[string]*Link
	vecs   *layerVecs
	bus    *rosbus.Bus
	broker *mqttlite.Broker
	// queue holds every delayed or held frame, sorted by (due, seq);
	// seq numbers them in the order they were queued.
	queue []*Frame
	seq   uint64
}

// layerVecs holds the per-outcome counter families, one series per
// link, created by Instrument.
type layerVecs struct {
	offered, delivered, dropped, outageDropped *obsv.CounterVec
	rejected, delayed, duplicated, reordered   *obsv.CounterVec
}

// Instrument mirrors every link's frame-fate counters into reg, one
// series per link name. Links created later are instrumented on
// creation; a nil registry leaves the layer uninstrumented.
func (l *Layer) Instrument(reg *obsv.Registry) {
	if reg == nil {
		return
	}
	v := &layerVecs{
		offered:       reg.CounterVec("sesame_link_offered_total", "Frames offered to the link.", "link"),
		delivered:     reg.CounterVec("sesame_link_delivered_total", "Frames delivered (including duplicates).", "link"),
		dropped:       reg.CounterVec("sesame_link_dropped_total", "Frames lost (stochastic drop or outage).", "link"),
		outageDropped: reg.CounterVec("sesame_link_outage_dropped_total", "Frames lost inside an outage window.", "link"),
		rejected:      reg.CounterVec("sesame_link_rejected_total", "Frames rejected with ErrLinkDown.", "link"),
		delayed:       reg.CounterVec("sesame_link_delayed_total", "Frames queued for delayed release.", "link"),
		duplicated:    reg.CounterVec("sesame_link_duplicated_total", "Frames delivered twice.", "link"),
		reordered:     reg.CounterVec("sesame_link_reordered_total", "Frames held to swap with a later one.", "link"),
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.vecs = v
	for name, lk := range l.links {
		lk.m = v.forLink(name)
	}
}

// forLink resolves one link's counter set out of the families.
func (v *layerVecs) forLink(name string) linkMetrics {
	if v == nil {
		return linkMetrics{}
	}
	return linkMetrics{
		offered:       v.offered.With(name),
		delivered:     v.delivered.With(name),
		dropped:       v.dropped.With(name),
		outageDropped: v.outageDropped.With(name),
		rejected:      v.rejected.With(name),
		delayed:       v.delayed.With(name),
		duplicated:    v.duplicated.With(name),
		reordered:     v.reordered.With(name),
	}
}

// New returns a fault layer drawing randomness from clock's streams
// and releasing its queued frames as the clock advances. The layer
// name namespaces the RNG streams so two layers on one clock stay
// independent.
func New(clock *simclock.Clock, name string) *Layer {
	if name == "" {
		name = "default"
	}
	l := &Layer{clock: clock, name: name, links: make(map[string]*Link)}
	clock.OnAdvance(l.release)
	return l
}

// Link returns the named link, creating a perfect one on first use.
func (l *Layer) Link(name string) *Link {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.linkLocked(name)
}

// linkLocked is Link with the layer mutex held.
func (l *Layer) linkLocked(name string) *Link {
	lk, ok := l.links[name]
	if !ok {
		lk = &Link{
			layer: l,
			name:  name,
			rng:   l.clock.Stream("linksim/" + l.name + "/" + name),
			m:     l.vecs.forLink(name),
		}
		l.links[name] = lk
	}
	return lk
}

// lookup returns the named link or nil, without creating it.
func (l *Layer) lookup(name string) *Link {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.links[name]
}

// AttachBus routes every bus publication through the link named after
// its publisher node. Publishers without a configured link pass through
// untouched, so only explicitly faulted nodes see impairments.
func (l *Layer) AttachBus(bus *rosbus.Bus) {
	l.bus = bus
	bus.SetFilter(func(msg rosbus.Message) (bool, error) {
		lk := l.lookup(msg.Publisher)
		if lk == nil {
			return true, nil
		}
		return lk.transit(Frame{Bus: true, Topic: msg.Topic, Publisher: msg.Publisher, MsgSeq: msg.Seq,
			Stamp: msg.Stamp, value: msg.Payload})
	})
}

// AttachBroker routes broker publications through the link named by
// route(topic); an empty route result passes the message through. This
// is how the IDS alert path (alerts/ids/<uav>) shares a UAV's link.
func (l *Layer) AttachBroker(b *mqttlite.Broker, route func(topic string) string) {
	l.broker = b
	b.SetFilter(func(topic string, payload []byte) (bool, error) {
		name := route(topic)
		if name == "" {
			return true, nil
		}
		lk := l.lookup(name)
		if lk == nil {
			return true, nil
		}
		return lk.transit(Frame{Topic: topic, Payload: append([]byte(nil), payload...)})
	})
}

// deliver re-injects one copy of f past the filter.
func (l *Layer) deliver(f *Frame) {
	if f.Bus {
		_ = l.bus.Deliver(rosbus.Message{Topic: f.Topic, Publisher: f.Publisher, Seq: f.MsgSeq, Stamp: f.Stamp, Payload: f.value})
	} else {
		_ = l.broker.Deliver(f.Topic, f.Payload, false)
	}
}

// push queues f for release at its due time, after every frame due
// no later, and counts its copies pending. Requires l.mu.
func (l *Layer) push(f Frame) *Frame {
	l.seq++
	f.Seq = l.seq
	f.link.stats.Pending += uint64(f.Copies)
	i := sort.Search(len(l.queue), func(i int) bool { return l.queue[i].Due > f.Due })
	l.queue = slices.Insert(l.queue, i, &f)
	return &f
}

// release delivers every queued frame due at or before until, in
// (due, seq) order, with the clock reading each frame's due time while
// it is delivered. A frame queued by a delivery that falls due before
// until goes out in the same call. It is the hook New registers on
// the clock.
func (l *Layer) release(until float64) {
	for {
		l.mu.Lock()
		if len(l.queue) == 0 || l.queue[0].Due > until {
			l.mu.Unlock()
			return
		}
		f := l.queue[0]
		l.queue = slices.Delete(l.queue, 0, 1)
		lk := f.link
		if f.Held {
			lk.held = nil
		}
		lk.stats.Pending -= uint64(f.Copies)
		count(&lk.stats.Delivered, lk.m.delivered, uint64(f.Copies))
		l.mu.Unlock()
		l.clock.SetNow(f.Due)
		for i := 0; i < f.Copies; i++ {
			l.deliver(f)
		}
	}
}

// Stats returns a snapshot of every link's counters, keyed by link name.
func (l *Layer) Stats() map[string]LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]LinkStats, len(l.links))
	for name, lk := range l.links {
		out[name] = lk.stats
	}
	return out
}

// Links returns the sorted names of configured links.
func (l *Layer) Links() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.links))
	for name := range l.links {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SetProfile replaces the link's impairment profile.
func (lk *Link) SetProfile(p Profile) {
	if p.ReorderProb > 0 && p.HoldMaxS <= 0 {
		p.HoldMaxS = 1
	}
	if p.DelayMaxS < p.DelayMinS {
		p.DelayMaxS = p.DelayMinS
	}
	lk.layer.mu.Lock()
	defer lk.layer.mu.Unlock()
	lk.profile = p
}

// AddOutage schedules a silent-loss window [from, to): frames offered
// inside it vanish without an error (radio silence).
func (lk *Link) AddOutage(from, to float64) {
	lk.layer.mu.Lock()
	defer lk.layer.mu.Unlock()
	lk.outages = append(lk.outages, outage{from: from, to: to})
}

// AddRejectOutage schedules a rejecting window [from, to): frames
// offered inside it fail with ErrLinkDown, so publishers can react.
func (lk *Link) AddRejectOutage(from, to float64) {
	lk.layer.mu.Lock()
	defer lk.layer.mu.Unlock()
	lk.outages = append(lk.outages, outage{from: from, to: to, reject: true})
}

// DownAt takes the link down permanently (silent loss) from time t.
func (lk *Link) DownAt(t float64) {
	lk.AddOutage(t, math.Inf(1))
}

// DownNow reports whether the link is inside any outage window at time
// now.
func (lk *Link) DownNow(now float64) bool {
	lk.layer.mu.Lock()
	defer lk.layer.mu.Unlock()
	down, _ := lk.outageAt(now)
	return down
}

// Stats returns a snapshot of the link's counters.
func (lk *Link) Stats() LinkStats {
	lk.layer.mu.Lock()
	defer lk.layer.mu.Unlock()
	return lk.stats
}

// count adds n to one of a link's counters and to its metric mirror.
func count(stat *uint64, mirror *obsv.Counter, n uint64) {
	*stat += n
	mirror.Add(n)
}

// setStats replaces the link's counters with restored ones and moves
// each metric mirror by the difference, so a restored layer reports
// what the recorded run reported. It works on differences, not on the
// mirror's value, because links past the registry's label cap share
// one series. Mirrors only count up: a counter restored below its
// current value leaves its mirror where it is.
func (lk *Link) setStats(s LinkStats) {
	old := lk.stats
	lk.stats = s
	for _, c := range [...]struct {
		mirror   *obsv.Counter
		from, to uint64
	}{
		{lk.m.offered, old.Offered, s.Offered},
		{lk.m.delivered, old.Delivered, s.Delivered},
		{lk.m.dropped, old.Dropped, s.Dropped},
		{lk.m.outageDropped, old.OutageDropped, s.OutageDropped},
		{lk.m.rejected, old.Rejected, s.Rejected},
		{lk.m.delayed, old.Delayed, s.Delayed},
		{lk.m.duplicated, old.Duplicated, s.Duplicated},
		{lk.m.reordered, old.Reordered, s.Reordered},
	} {
		if c.to > c.from {
			c.mirror.Add(c.to - c.from)
		}
	}
}

// outageAt must be called with the layer mutex held.
func (lk *Link) outageAt(now float64) (down, reject bool) {
	for _, o := range lk.outages {
		if now >= o.from && now < o.to {
			if o.reject {
				return true, true
			}
			down = true
		}
	}
	return down, false
}

// transit decides one frame's fate. The return values follow the
// Filter contract: forward=true hands delivery back to the caller;
// forward=false means the frame was consumed here (dropped, queued, or
// already delivered).
//
// Deliveries always happen outside the layer mutex: they re-enter bus
// handlers, which may publish alerts through a broker whose filter
// takes this same mutex.
func (lk *Link) transit(f Frame) (bool, error) {
	l := lk.layer
	l.mu.Lock()
	count(&lk.stats.Offered, lk.m.offered, 1)
	now := l.clock.Now()

	if down, reject := lk.outageAt(now); down {
		if reject {
			count(&lk.stats.Rejected, lk.m.rejected, 1)
			l.mu.Unlock()
			return false, ErrLinkDown
		}
		count(&lk.stats.Dropped, lk.m.dropped, 1)
		count(&lk.stats.OutageDropped, lk.m.outageDropped, 1)
		l.mu.Unlock()
		return false, nil
	}

	p := lk.profile
	// Fixed per-frame draw order (determinism): drop, then — for frames
	// that survive — reorder, dup, delay, delay amount. Early exits skip
	// later draws, which is fine: the draw sequence is a pure function
	// of the frame sequence and prior outcomes.
	if p.DropProb > 0 && lk.rng.Float64() < p.DropProb {
		count(&lk.stats.Dropped, lk.m.dropped, 1)
		l.mu.Unlock()
		return false, nil
	}

	f.link = lk
	if p.ReorderProb > 0 && lk.held == nil && lk.rng.Float64() < p.ReorderProb {
		f.Due, f.Copies, f.Held = now+p.HoldMaxS, 1, true
		lk.held = l.push(f)
		count(&lk.stats.Reordered, lk.m.reordered, 1)
		l.mu.Unlock()
		return false, nil
	}

	dup := p.DupProb > 0 && lk.rng.Float64() < p.DupProb
	delayed := p.DelayProb > 0 && lk.rng.Float64() < p.DelayProb
	if delayed {
		amount := p.DelayMinS
		if p.DelayMaxS > p.DelayMinS {
			amount += lk.rng.Float64() * (p.DelayMaxS - p.DelayMinS)
		}
		f.Due, f.Copies = now+amount, 1
		count(&lk.stats.Delayed, lk.m.delayed, 1)
		if dup {
			f.Copies = 2
			count(&lk.stats.Duplicated, lk.m.duplicated, 1)
		}
		l.push(f)
		l.mu.Unlock()
		return false, nil
	}

	// Inline path. Releasing a held frame here is what produces the
	// reorder: the held (earlier) frame lands after this (later) one.
	release := lk.held
	if release != nil {
		l.queue = slices.DeleteFunc(l.queue, func(q *Frame) bool { return q == release })
		lk.held = nil
		lk.stats.Pending--
		count(&lk.stats.Delivered, lk.m.delivered, 1) // the released frame
	}
	count(&lk.stats.Delivered, lk.m.delivered, 1) // this frame
	if dup {
		count(&lk.stats.Duplicated, lk.m.duplicated, 1)
		count(&lk.stats.Delivered, lk.m.delivered, 1)
	}
	l.mu.Unlock()

	if release == nil && !dup {
		// Nothing extra to interleave: let the caller deliver.
		return true, nil
	}
	l.deliver(&f)
	if release != nil {
		l.deliver(release)
	}
	if dup {
		l.deliver(&f)
	}
	return false, nil
}

// State is a layer's checkpoint: the frames in flight in release
// order (held frames included), the queue's sequence counter and every
// link's counters. Profiles, outage windows and RNG streams are not
// part of it: the rebuilt mission configures the links again, and the
// world checkpoint carries the stream positions.
type State struct {
	Seq    uint64               `json:"seq"`
	Frames []Frame              `json:"frames,omitempty"`
	Links  map[string]LinkStats `json:"links"`
}

// State exports the layer's checkpoint.
func (l *Layer) State() (State, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := State{Seq: l.seq, Links: make(map[string]LinkStats, len(l.links))}
	for name, lk := range l.links {
		st.Links[name] = lk.stats
	}
	for _, f := range l.queue {
		sf := *f
		sf.Link, sf.value, sf.link = f.link.name, nil, nil
		if f.Bus {
			var err error
			if sf.Msg, err = json.Marshal(f.value); err != nil {
				return State{}, fmt.Errorf("linksim: checkpoint frame on %s: %w", f.Topic, err)
			}
		}
		st.Frames = append(st.Frames, sf)
	}
	return st, nil
}

// Restore overlays a checkpoint onto a freshly rebuilt layer: it
// replaces the queue, the held frames, the sequence counter and every
// link's counters (links absent from st restart at zero), and brings
// the counters' metric mirrors along. decode turns
// a bus frame's JSON payload back into the value its topic carries.
func (l *Layer) Restore(st State, decode func(topic string, payload json.RawMessage) (any, error)) error {
	queue := make([]*Frame, 0, len(st.Frames))
	for _, sf := range st.Frames {
		f := sf
		switch {
		case f.Bus && l.bus != nil:
			value, err := decode(f.Topic, f.Msg)
			if err != nil {
				return fmt.Errorf("linksim: restore frame %d: %w", f.Seq, err)
			}
			f.value, f.Msg = value, nil
		case !f.Bus && l.broker != nil:
		default:
			return fmt.Errorf("linksim: restore frame %d: no attached bus or broker carries it", f.Seq)
		}
		queue = append(queue, &f)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for name, lk := range l.links {
		lk.setStats(st.Links[name])
		lk.held = nil
	}
	for name, s := range st.Links {
		l.linkLocked(name).setStats(s)
	}
	for _, f := range queue {
		f.link = l.linkLocked(f.Link)
		if f.Held {
			f.link.held = f
		}
	}
	l.queue, l.seq = queue, st.Seq
	return nil
}
