package simclock

import (
	"math/rand"
	"testing"
)

func TestStreamsDeterministic(t *testing.T) {
	a := New(42).Stream("gps")
	b := New(42).Stream("gps")
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed+name streams diverged")
		}
	}
}

func TestStreamsIndependent(t *testing.T) {
	c := New(42)
	a := c.Stream("gps")
	b := c.Stream("battery")
	same := true
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("differently named streams produced identical sequences")
	}
	// Re-fetching a stream returns the same generator, not a reset one.
	if c.Stream("gps") != a {
		t.Fatal("Stream must memoize")
	}
}

// TestAdvanceToRunsHooks pins the release-hook contract: AdvanceTo
// hands every hook the target time, in registration order, lets a hook
// step the clock through intermediate times, and lands on the target.
func TestAdvanceToRunsHooks(t *testing.T) {
	c := New(1)
	var got []float64
	c.OnAdvance(func(until float64) {
		got = append(got, until)
		if until-0.5 > c.Now() {
			c.SetNow(until - 0.5)
			got = append(got, c.Now())
		}
	})
	c.OnAdvance(func(until float64) { got = append(got, -until) })
	c.AdvanceTo(3)
	want := []float64{3, 2.5, -3}
	if len(got) != len(want) {
		t.Fatalf("hook calls = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hook calls = %v, want %v", got, want)
		}
	}
	if c.Now() != 3 {
		t.Fatalf("Now = %v, want 3", c.Now())
	}
	c.AdvanceTo(1)
	if c.Now() != 3 {
		t.Fatalf("AdvanceTo backwards moved the clock to %v", c.Now())
	}
}

// TestCountingSourceSequencesUnchanged pins the stream sequences against
// the raw generator the seed repo used: wrapping the source to count
// draws must not change a single emitted value, for every rand.Rand
// method the codebase uses.
func TestCountingSourceSequencesUnchanged(t *testing.T) {
	const seed = 42
	c := New(seed)
	var h uint64 = 1469598103934665603
	for _, b := range []byte("wind") {
		h ^= uint64(b)
		h *= 1099511628211
	}
	raw := rand.New(rand.NewSource(seed ^ int64(h)))
	got := c.Stream("wind")
	for i := 0; i < 500; i++ {
		switch i % 5 {
		case 0:
			if a, b := got.Float64(), raw.Float64(); a != b {
				t.Fatalf("Float64 #%d: %v != %v", i, a, b)
			}
		case 1:
			if a, b := got.NormFloat64(), raw.NormFloat64(); a != b {
				t.Fatalf("NormFloat64 #%d: %v != %v", i, a, b)
			}
		case 2:
			if a, b := got.Intn(97), raw.Intn(97); a != b {
				t.Fatalf("Intn #%d: %v != %v", i, a, b)
			}
		case 3:
			if a, b := got.Int63(), raw.Int63(); a != b {
				t.Fatalf("Int63 #%d: %v != %v", i, a, b)
			}
		case 4:
			if a, b := got.Uint64(), raw.Uint64(); a != b {
				t.Fatalf("Uint64 #%d: %v != %v", i, a, b)
			}
		}
	}
}

// TestStreamStateRestore checks the checkpoint/restore contract: a clock
// restored from StreamStates emits exactly the values the original
// would have emitted next, across mixed draw kinds and several streams.
func TestStreamStateRestore(t *testing.T) {
	orig := New(99)
	gust := orig.Stream("world/gust")
	gps := orig.Stream("uav/gps")
	for i := 0; i < 137; i++ {
		gust.NormFloat64()
		if i%3 == 0 {
			gps.Float64()
		}
	}
	states := orig.StreamStates()
	if len(states) != 2 {
		t.Fatalf("want 2 stream states, got %d", len(states))
	}

	restored := New(99)
	restored.RestoreStreams(states)
	rg := restored.Stream("world/gust")
	rp := restored.Stream("uav/gps")
	for i := 0; i < 64; i++ {
		if a, b := gust.NormFloat64(), rg.NormFloat64(); a != b {
			t.Fatalf("gust draw %d diverged: %v != %v", i, a, b)
		}
		if a, b := gps.Intn(1000), rp.Intn(1000); a != b {
			t.Fatalf("gps draw %d diverged: %v != %v", i, a, b)
		}
	}

	// StreamStates is sorted by name for deterministic serialization.
	if states[0].Name > states[1].Name {
		t.Fatal("StreamStates must be sorted by name")
	}
}

func TestSetNow(t *testing.T) {
	c := New(1)
	c.SetNow(12.5)
	if c.Now() != 12.5 {
		t.Fatalf("SetNow: now = %v", c.Now())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetNow backwards must panic")
			}
		}()
		c.SetNow(1)
	}()
}

// TestRestoreStreamsKeepsCapturedHandles pins the in-place restore
// contract: a *rand.Rand captured before RestoreStreams (the GPS
// receiver and detector hold theirs from construction) must emit the
// restored sequence, not keep drawing from a detached generator.
func TestRestoreStreamsKeepsCapturedHandles(t *testing.T) {
	original := New(99)
	ref := original.Stream("gps/u1")
	for i := 0; i < 137; i++ {
		ref.NormFloat64()
	}
	want := make([]float64, 16)
	states := original.StreamStates()
	for i := range want {
		want[i] = ref.NormFloat64()
	}

	replay := New(99)
	captured := replay.Stream("gps/u1") // handle taken BEFORE restore
	captured.NormFloat64()              // and already advanced differently
	replay.RestoreStreams(states)
	for i, w := range want {
		if got := captured.NormFloat64(); got != w {
			t.Fatalf("captured handle draw %d: got %v want %v", i, got, w)
		}
	}

	// Streams the checkpoint never saw rewind to a fresh sequence.
	fresh := New(5)
	side := fresh.Stream("side")
	first := side.Int63()
	for i := 0; i < 9; i++ {
		side.Int63()
	}
	fresh.RestoreStreams(nil)
	if got := side.Int63(); got != first {
		t.Fatalf("unseen stream must rewind: got %v want %v", got, first)
	}
}

// TestShardStreams pins the split semantics behind cell-sharded
// scheduling: n <= 1 degrades to the plain named stream so unsharded
// callers keep the legacy draw sequence, while n > 1 yields
// deterministic per-shard sub-streams that reproduce across clocks with
// the same seed and checkpoint like any other named stream.
func TestShardStreams(t *testing.T) {
	a := New(5)
	if got := a.ShardStreams("det", 1); len(got) != 1 || got[0] != a.Stream("det") {
		t.Fatal("n=1 must return the plain named stream")
	}
	if got := a.ShardStreams("det", 0); len(got) != 1 || got[0] != a.Stream("det") {
		t.Fatal("n<=0 must return the plain named stream")
	}

	b := New(5)
	sa := a.ShardStreams("dets", 4)
	sb := b.ShardStreams("dets", 4)
	if len(sa) != 4 || len(sb) != 4 {
		t.Fatalf("shard count = %d/%d, want 4", len(sa), len(sb))
	}
	for i := range sa {
		for k := 0; k < 8; k++ {
			if x, y := sa[i].Int63(), sb[i].Int63(); x != y {
				t.Fatalf("shard %d draw %d diverges across same-seed clocks: %d != %d", i, k, x, y)
			}
		}
	}

	// Shard i is exactly the "<name>/shard%03d" stream, so a caller can
	// reach the same sequence by name (and checkpoints capture it).
	c := New(5)
	byName := c.Stream("dets/shard002")
	direct := New(5).ShardStreams("dets", 4)[2]
	for k := 0; k < 8; k++ {
		if x, y := byName.Int63(), direct.Int63(); x != y {
			t.Fatalf("shard 2 != named stream at draw %d: %d != %d", k, x, y)
		}
	}
	found := false
	for _, st := range c.StreamStates() {
		if st.Name == "dets/shard002" && st.Draws == 8 {
			found = true
		}
	}
	if !found {
		t.Error("shard stream position missing from StreamStates")
	}

	// Distinct shards must not emit the same sequence.
	d := New(5)
	sd := d.ShardStreams("dets", 2)
	same := true
	for k := 0; k < 8; k++ {
		if sd[0].Int63() != sd[1].Int63() {
			same = false
		}
	}
	if same {
		t.Error("shards 0 and 1 emitted identical sequences")
	}
}
