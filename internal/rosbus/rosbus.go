// Package rosbus is an in-process publish/subscribe middleware that
// stands in for ROS Noetic in the paper's architecture (Figs. 2 and 3).
// It reproduces the property that makes the §V-C attack possible: like
// stock ROS, the bus does not authenticate publishers, so any node that
// can reach the bus may advertise on any topic and inject falsified
// messages. The IDS taps the bus the way a network IDS taps ROS
// traffic.
//
// Delivery is synchronous and in registration order, which keeps
// simulation runs deterministic.
package rosbus

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"sesame/internal/obsv"
)

// Message is one bus datagram. Payloads are domain structs defined by
// the publishing subsystem (e.g. GPSFix, BatteryState).
type Message struct {
	Topic     string
	Publisher string  // advertised node name; NOT authenticated
	Seq       uint64  // per-topic sequence number assigned by the bus
	Stamp     float64 // simulation time in seconds, set by the publisher
	Payload   interface{}
}

// Handler consumes messages delivered to a subscription.
type Handler func(Message)

// Subscription identifies an active subscription; use Bus.Unsubscribe
// to cancel it.
type Subscription struct {
	topic string
	id    int
}

// ErrDepthExceeded is returned when the publish-from-handler recursion
// guard trips; match it with errors.Is.
var ErrDepthExceeded = errors.New("rosbus: publish depth exceeded")

// Filter inspects every message accepted from a publisher before it is
// delivered. Returning forward=false consumes the message: the bus does
// not deliver it, and the filter owns its fate (it may call Deliver
// later, once, several times, or never — the hook a lossy-link layer
// needs). A non-nil error is additionally surfaced to the publisher,
// which models a link that rejects frames rather than eating them.
type Filter func(Message) (forward bool, err error)

// Stats is a point-in-time snapshot of bus-wide counters.
type Stats struct {
	// Published counts messages accepted from publishers (a sequence
	// number was assigned), whether or not they were delivered.
	Published uint64
	// Delivered counts messages dispatched to subscribers and taps,
	// including filter redeliveries via Deliver.
	Delivered uint64
	// FilterConsumed counts messages a filter kept from synchronous
	// delivery (dropped, delayed or rejected by the link layer).
	FilterConsumed uint64
	// DepthExceeded counts publishes refused by the recursion guard.
	DepthExceeded uint64
}

// Bus is the topic registry and router (the roscore equivalent).
// The zero value is not usable; call NewBus.
type Bus struct {
	mu     sync.Mutex
	topics map[string]*topicState
	// taps is the tap delivery list in id order (see handlerList).
	taps   handlerList
	nextID int
	filter Filter
	// depth guards against unbounded publish-from-handler recursion.
	depth int
	// stats
	published      uint64
	delivered      uint64
	filterConsumed uint64
	depthExceeded  uint64
	// Observability mirrors (nil when uninstrumented; all nil-safe).
	mPublished     *obsv.CounterVec
	mDelivered     *obsv.Counter
	mConsumed      *obsv.Counter
	mDepthExceeded *obsv.Counter
}

type topicState struct {
	seq  uint64
	subs handlerList
	// stats
	published uint64
	// mPublished caches this topic's labeled counter so the publish
	// hot path never pays a series lookup (nil when uninstrumented).
	mPublished *obsv.Counter
}

// handlerList is a delivery list: handlers in ascending registration
// id, which is delivery order. It is both the registry and the cached
// snapshot dispatch runs, so a publish neither collects nor sorts.
//
// dispatch copies the slice header under the bus lock and runs the
// handlers unlocked, so the list is copy-on-write: registering appends
// (ids only grow, so order holds, and an append writes past every
// earlier snapshot's length), and remove builds a fresh slice rather
// than shifting entries in the backing array an in-flight dispatch
// may be reading.
type handlerList []registered

type registered struct {
	id int
	h  Handler
}

// remove returns the list without id, as a fresh slice; unknown ids
// return l unchanged.
func (l handlerList) remove(id int) handlerList {
	for i, r := range l {
		if r.id == id {
			out := make(handlerList, 0, len(l)-1)
			return append(append(out, l[:i]...), l[i+1:]...)
		}
	}
	return l
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{topics: make(map[string]*topicState)}
}

// Instrument mirrors the bus counters into reg. A nil registry leaves
// the bus uninstrumented (every mirror stays a no-op nil handle).
func (b *Bus) Instrument(reg *obsv.Registry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.mPublished = reg.CounterVec("sesame_rosbus_published_total",
		"Messages accepted from publishers, by topic.", "topic")
	for topic, ts := range b.topics {
		ts.mPublished = b.mPublished.With(topic)
	}
	b.mDelivered = reg.Counter("sesame_rosbus_delivered_total",
		"Messages dispatched to subscribers and taps.")
	b.mConsumed = reg.Counter("sesame_rosbus_filter_consumed_total",
		"Messages consumed by the link filter before delivery.")
	b.mDepthExceeded = reg.Counter("sesame_rosbus_depth_exceeded_total",
		"Publishes refused by the recursion guard.")
}

// maxPublishDepth bounds handler->publish recursion.
const maxPublishDepth = 32

// Publisher is a handle bound to a topic and an (unverified) node name.
// It holds the topic's state, so publishing does no topic lookup.
type Publisher struct {
	bus   *Bus
	ts    *topicState
	topic string
	node  string
}

// Advertise returns a publisher for topic under the given node name.
// Names are not authenticated — this mirrors the ROS vulnerability the
// Security EDDI exists to detect.
func (b *Bus) Advertise(topic, node string) (*Publisher, error) {
	if topic == "" || node == "" {
		return nil, errors.New("rosbus: empty topic or node name")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return &Publisher{bus: b, ts: b.ensureTopic(topic), topic: topic, node: node}, nil
}

func (b *Bus) ensureTopic(topic string) *topicState {
	ts, ok := b.topics[topic]
	if !ok {
		ts = &topicState{}
		if b.mPublished != nil {
			ts.mPublished = b.mPublished.With(topic)
		}
		b.topics[topic] = ts
	}
	return ts
}

// Publish sends payload on the publisher's topic at simulation time
// stamp. Handlers run synchronously before Publish returns.
func (p *Publisher) Publish(stamp float64, payload interface{}) error {
	return p.bus.publish(p.ts, Message{
		Topic:     p.topic,
		Publisher: p.node,
		Stamp:     stamp,
		Payload:   payload,
	})
}

// Inject delivers a fully caller-controlled message, spoofed publisher
// name included. It is how attack scenarios model a compromised node.
func (b *Bus) Inject(msg Message) error {
	return b.publish(nil, msg)
}

// SetFilter installs (or, with nil, removes) the bus-wide link filter.
// Only one filter is supported; a link layer multiplexes internally.
func (b *Bus) SetFilter(f Filter) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.filter = f
}

// WrapFilter composes a new filter over whatever is currently
// installed: the wrapper receives the previous filter (possibly nil)
// and decides whether and how to delegate. Fault layers stack this way
// — e.g. a chaos layer over a link simulator — instead of overwriting
// each other through SetFilter.
func (b *Bus) WrapFilter(wrap func(next Filter) Filter) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.filter = wrap(b.filter)
}

// publish assigns msg its sequence number on ts (looked up by topic
// when nil), runs the filter and dispatches.
func (b *Bus) publish(ts *topicState, msg Message) error {
	if msg.Topic == "" {
		return errors.New("rosbus: empty topic")
	}
	b.mu.Lock()
	if b.depth >= maxPublishDepth {
		b.depthExceeded++
		b.mDepthExceeded.Inc()
		b.mu.Unlock()
		return fmt.Errorf("%w: %d levels (handler loop?)", ErrDepthExceeded, maxPublishDepth)
	}
	b.depth++
	if ts == nil {
		ts = b.ensureTopic(msg.Topic)
	}
	ts.seq++
	ts.published++
	b.published++
	ts.mPublished.Inc()
	msg.Seq = ts.seq
	filter := b.filter
	b.mu.Unlock()

	// The filter runs outside the lock: a link layer may call Deliver
	// (inline dup/reorder release) or schedule clock callbacks that do.
	if filter != nil {
		fwd, err := filter(msg)
		if !fwd || err != nil {
			b.mu.Lock()
			b.filterConsumed++
			b.mConsumed.Inc()
			b.depth--
			b.mu.Unlock()
			return err
		}
	}

	b.dispatch(ts, msg)

	b.mu.Lock()
	b.depth--
	b.mu.Unlock()
	return nil
}

// Deliver dispatches a message to subscribers and taps, bypassing the
// filter and sequence assignment. It is the re-injection path for a
// link layer releasing delayed, duplicated or reordered frames; msg
// should be a message the filter previously consumed (Seq already
// assigned). The recursion guard still applies.
func (b *Bus) Deliver(msg Message) error {
	if msg.Topic == "" {
		return errors.New("rosbus: empty topic")
	}
	b.mu.Lock()
	if b.depth >= maxPublishDepth {
		b.depthExceeded++
		b.mDepthExceeded.Inc()
		b.mu.Unlock()
		return fmt.Errorf("%w: %d levels (handler loop?)", ErrDepthExceeded, maxPublishDepth)
	}
	b.depth++
	ts := b.ensureTopic(msg.Topic)
	b.mu.Unlock()

	b.dispatch(ts, msg)

	b.mu.Lock()
	b.depth--
	b.mu.Unlock()
	return nil
}

// dispatch snapshots ts's subscribers and the bus taps under the lock
// and runs them unlocked: subscribers, then taps, each in id order.
func (b *Bus) dispatch(ts *topicState, msg Message) {
	b.mu.Lock()
	subs, taps := ts.subs, b.taps
	b.delivered++
	b.mDelivered.Inc()
	b.mu.Unlock()

	for _, r := range subs {
		r.h(msg)
	}
	for _, r := range taps {
		r.h(msg)
	}
}

// Stats returns a snapshot of the bus-wide counters.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Stats{
		Published:      b.published,
		Delivered:      b.delivered,
		FilterConsumed: b.filterConsumed,
		DepthExceeded:  b.depthExceeded,
	}
}

// Subscribe registers handler for every future message on topic.
func (b *Bus) Subscribe(topic string, handler Handler) (Subscription, error) {
	if topic == "" {
		return Subscription{}, errors.New("rosbus: empty topic")
	}
	if handler == nil {
		return Subscription{}, errors.New("rosbus: nil handler")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	ts := b.ensureTopic(topic)
	b.nextID++
	ts.subs = append(ts.subs, registered{id: b.nextID, h: handler})
	return Subscription{topic: topic, id: b.nextID}, nil
}

// Unsubscribe cancels a subscription. Unknown subscriptions are a no-op.
func (b *Bus) Unsubscribe(s Subscription) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ts, ok := b.topics[s.topic]; ok {
		ts.subs = ts.subs.remove(s.id)
	}
}

// Tap registers handler for every message on every topic (the IDS
// vantage point). The returned cancel function removes the tap.
func (b *Bus) Tap(handler Handler) (cancel func(), err error) {
	if handler == nil {
		return nil, errors.New("rosbus: nil tap handler")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	id := b.nextID
	b.taps = append(b.taps, registered{id: id, h: handler})
	return func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.taps = b.taps.remove(id)
	}, nil
}

// Topics returns the sorted list of known topics.
func (b *Bus) Topics() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.topics))
	for t := range b.topics {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// PublishedCount returns how many messages have been published on topic.
func (b *Bus) PublishedCount(topic string) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ts, ok := b.topics[topic]; ok {
		return ts.published
	}
	return 0
}

// SubscriberCount returns the number of active subscriptions on topic.
func (b *Bus) SubscriberCount(topic string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ts, ok := b.topics[topic]; ok {
		return len(ts.subs)
	}
	return 0
}
