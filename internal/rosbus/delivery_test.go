package rosbus

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestDeliveryListInvalidation changes the handler set between
// publishes in every way the bus allows and checks each publish reaches
// exactly the current set: subscribers, then taps, each by id.
func TestDeliveryListInvalidation(t *testing.T) {
	b := NewBus()
	var got []string
	handler := func(name string) Handler {
		return func(m Message) { got = append(got, fmt.Sprintf("%s:%d", name, m.Seq)) }
	}
	p, _ := b.Advertise("/t", "n")
	publish := func(want ...string) {
		t.Helper()
		got = nil
		if err := p.Publish(0, nil); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}

	publish() // no handlers yet
	// A tap registered before a subscriber still runs after it.
	cancelT1, _ := b.Tap(handler("t1"))
	s1, _ := b.Subscribe("/t", handler("s1"))
	publish("s1:2", "t1:2")
	s2, _ := b.Subscribe("/t", handler("s2"))
	_, _ = b.Subscribe("/other", handler("other"))
	publish("s1:3", "s2:3", "t1:3")
	cancelT2, _ := b.Tap(handler("t2"))
	publish("s1:4", "s2:4", "t1:4", "t2:4")
	b.Unsubscribe(s1)
	publish("s2:5", "t1:5", "t2:5")
	cancelT1()
	publish("s2:6", "t2:6")
	s3, _ := b.Subscribe("/t", handler("s3"))
	publish("s2:7", "s3:7", "t2:7")
	// Removing twice, or a subscription of another topic, is a no-op.
	b.Unsubscribe(s1)
	cancelT1()
	b.Unsubscribe(Subscription{topic: "/t", id: 999})
	publish("s2:8", "s3:8", "t2:8")
	b.Unsubscribe(s2)
	b.Unsubscribe(s3)
	cancelT2()
	publish()
}

// TestSubscribeFromHandler checks the copy-on-write snapshot: a
// handler that subscribes, unsubscribes or taps mid-dispatch does not
// change who receives the in-flight message, only the next one.
func TestSubscribeFromHandler(t *testing.T) {
	b := NewBus()
	var got []string
	record := func(name string) Handler {
		return func(m Message) { got = append(got, fmt.Sprintf("%s:%d", name, m.Seq)) }
	}
	var s2 Subscription
	first := true
	_, _ = b.Subscribe("/t", func(m Message) {
		got = append(got, fmt.Sprintf("s1:%d", m.Seq))
		if first {
			first = false
			b.Unsubscribe(s2)
			_, _ = b.Subscribe("/t", record("s3"))
			_, _ = b.Tap(record("t2"))
		}
	})
	s2, _ = b.Subscribe("/t", record("s2"))
	_, _ = b.Tap(record("t1"))
	p, _ := b.Advertise("/t", "n")
	_ = p.Publish(0, nil)
	_ = p.Publish(0, nil)
	want := []string{"s1:1", "s2:1", "t1:1", "s1:2", "s3:2", "t1:2", "t2:2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
}

// TestPublishAllocatesNothing pins the publish fast path: a pre-boxed
// payload to a topic with one subscriber and one tap allocates 0.
func TestPublishAllocatesNothing(t *testing.T) {
	b := NewBus()
	n := 0
	_, _ = b.Subscribe("/t", func(Message) { n++ })
	_, _ = b.Tap(func(Message) { n++ })
	p, _ := b.Advertise("/t", "n")
	var payload interface{} = struct{ X, Y float64 }{1, 2}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := p.Publish(1, payload); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Publish allocates %.1f per call, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("handlers never ran")
	}
}

// TestPublishRacesSubscribe runs publishes concurrently with
// subscribes, unsubscribes and taps (meaningful under -race): every
// message must reach the handler that stays subscribed throughout.
func TestPublishRacesSubscribe(t *testing.T) {
	b := NewBus()
	var mu sync.Mutex
	steady := 0
	_, _ = b.Subscribe("/t", func(Message) {
		mu.Lock()
		steady++
		mu.Unlock()
	})
	const publishers, perPublisher = 4, 200
	var wg sync.WaitGroup
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, _ := b.Advertise("/t", "n")
			for j := 0; j < perPublisher; j++ {
				_ = p.Publish(0, nil)
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				s, _ := b.Subscribe("/t", func(Message) {})
				cancel, _ := b.Tap(func(Message) {})
				b.Unsubscribe(s)
				cancel()
			}
		}()
	}
	wg.Wait()
	if steady != publishers*perPublisher {
		t.Fatalf("steady subscriber saw %d messages, want %d", steady, publishers*perPublisher)
	}
	if got := b.SubscriberCount("/t"); got != 1 {
		t.Fatalf("SubscriberCount = %d after churn, want 1", got)
	}
}

// TestStatsPublishedCountsAcceptedMessages checks the bus-wide
// Published counter equals the sum of the per-topic counts, across
// publishers, injections, filter consumption, redelivery and the
// recursion guard.
func TestStatsPublishedCountsAcceptedMessages(t *testing.T) {
	b := NewBus()
	pa, _ := b.Advertise("/a", "n")
	pb, _ := b.Advertise("/b", "n")
	_ = pa.Publish(0, nil)
	_ = pb.Publish(0, nil)
	_ = b.Inject(Message{Topic: "/c", Publisher: "x"})
	var held []Message
	b.SetFilter(func(m Message) (bool, error) {
		if m.Topic == "/b" {
			held = append(held, m)
			return false, nil
		}
		return true, nil
	})
	_ = pb.Publish(1, nil)
	_ = b.Deliver(held[0])
	b.SetFilter(nil)
	_, _ = b.Subscribe("/loop", func(m Message) { _ = b.Inject(m) })
	_ = b.Inject(Message{Topic: "/loop", Publisher: "x"})

	var sum uint64
	for _, topic := range b.Topics() {
		sum += b.PublishedCount(topic)
	}
	st := b.Stats()
	if st.Published != sum {
		t.Fatalf("Stats().Published = %d, per-topic sum = %d", st.Published, sum)
	}
	if st.Published != 4+maxPublishDepth || st.FilterConsumed != 1 || st.DepthExceeded != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}
