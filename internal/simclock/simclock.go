// Package simclock provides the deterministic simulation time base
// used by the UAV world model and the experiment harness. It
// substitutes for the wall-clock/Gazebo time base the paper's field
// trials used: the clock keeps simulation time and a family of seeded
// RNG streams, and every stochastic component draws from those streams,
// so an experiment re-runs bit-for-bit for a given seed. The clock
// holds no scheduled work of its own: components with work in flight
// (linksim's delayed frames) keep it as data and release it from a
// hook run as the world advances, so a checkpoint can carry it.
package simclock

import (
	"fmt"
	"math/rand"
	"sort"
)

// Clock is a simulation clock with a family of named, independently
// seeded random streams. The zero value is not usable; call New.
type Clock struct {
	now     float64
	seed    int64
	streams map[string]*countingSource
	rands   map[string]*rand.Rand
	hooks   []func(until float64)
}

// New returns a clock starting at t=0 whose random streams derive from
// seed.
func New(seed int64) *Clock {
	return &Clock{
		seed:    seed,
		streams: make(map[string]*countingSource),
		rands:   make(map[string]*rand.Rand),
	}
}

// Now returns the current simulation time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Seed returns the seed the clock's streams derive from.
func (c *Clock) Seed() int64 { return c.seed }

// countingSource wraps a stream's underlying generator and counts how
// many times it stepped. math/rand's generator advances exactly one
// step per Int63 or Uint64 call, so the count alone pins the stream's
// position: recreating the source from (seed, name) and drawing count
// values restores the identical state. The wrapper implements
// rand.Source64 exactly like the wrapped rngSource does, so rand.Rand's
// method selection — hence every emitted sequence — is unchanged.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.draws = 0
	s.src.Seed(seed)
}

// streamSeed derives the named stream's seed from the clock seed via
// FNV-1a, the scheme every stream has used since the seed repo.
func (c *Clock) streamSeed(name string) int64 {
	var h uint64 = 1469598103934665603 // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return c.seed ^ int64(h)
}

// Stream returns the named random stream, creating it deterministically
// from the clock seed and the name on first use. Distinct names give
// independent streams; the same (seed, name) pair always gives the same
// sequence.
func (c *Clock) Stream(name string) *rand.Rand {
	if r, ok := c.rands[name]; ok {
		return r
	}
	src := &countingSource{src: rand.NewSource(c.streamSeed(name)).(rand.Source64)}
	r := rand.New(src)
	c.streams[name] = src
	c.rands[name] = r
	return r
}

// ShardStreams returns n deterministic sub-streams of the named stream
// family, one per shard, creating them on first use. For n <= 1 it
// degrades to the single Stream(name), so unsharded callers keep the
// legacy draw sequence bit-identical. Shard i draws from the named
// stream "<name>/shard<i>"; the split depends only on (seed, name, i),
// never on how shards are scheduled, so concurrent shards stay
// reproducible. Call this before handing the streams to concurrent
// workers: stream creation mutates the clock's registry and is not
// goroutine-safe.
func (c *Clock) ShardStreams(name string, n int) []*rand.Rand {
	if n <= 1 {
		return []*rand.Rand{c.Stream(name)}
	}
	out := make([]*rand.Rand, n)
	for i := range out {
		out[i] = c.Stream(fmt.Sprintf("%s/shard%03d", name, i))
	}
	return out
}

// StreamState records one named stream's position as the number of
// generator steps consumed since creation.
type StreamState struct {
	Name  string `json:"name"`
	Draws uint64 `json:"draws"`
}

// StreamStates returns every created stream's position, sorted by name
// for deterministic serialization.
func (c *Clock) StreamStates() []StreamState {
	states := make([]StreamState, 0, len(c.streams))
	for name, src := range c.streams {
		states = append(states, StreamState{Name: name, Draws: src.draws})
	}
	sort.Slice(states, func(i, j int) bool { return states[i].Name < states[j].Name })
	return states
}

// RestoreStreams repositions every stream to the recorded draw count.
// Existing stream objects are reset IN PLACE rather than replaced:
// components that captured a *rand.Rand at construction (GPS
// receivers, the detector) keep their handles, and those handles emit
// exactly the values the original clock would have emitted had it kept
// running. Existing streams absent from states are rewound to zero
// draws — the original run had not touched them by the checkpoint, so
// first use must see a fresh sequence.
func (c *Clock) RestoreStreams(states []StreamState) {
	want := make(map[string]uint64, len(states))
	for _, st := range states {
		want[st.Name] = st.Draws
	}
	for name, src := range c.streams {
		src.Seed(c.streamSeed(name))
		for src.draws < want[name] {
			src.Uint64()
		}
	}
	for _, st := range states {
		if _, ok := c.streams[st.Name]; ok {
			continue
		}
		c.Stream(st.Name)
		src := c.streams[st.Name]
		for src.draws < st.Draws {
			src.Uint64()
		}
	}
}

// OnAdvance registers fn as a release hook: every AdvanceTo runs it
// before the clock reaches its target time, and fn may step the clock
// forward with SetNow (never past the target) while it delivers work
// that fell due. Hooks are construction-time wiring, like bus
// subscriptions: they are never serialized, and a rebuilt mission
// registers them again. Several hooks run in registration order.
func (c *Clock) OnAdvance(fn func(until float64)) {
	c.hooks = append(c.hooks, fn)
}

// AdvanceTo runs the release hooks up to t, then sets the clock to t.
// An earlier t leaves the clock where it is.
func (c *Clock) AdvanceTo(t float64) {
	for _, fn := range c.hooks {
		fn(t)
	}
	if t > c.now {
		c.now = t
	}
}

// SetNow jumps the clock to t without running the release hooks: the
// restore path uses it, and so do hooks stepping through due times.
// Moving backwards panics: it is always a logic error in a
// discrete-time model.
func (c *Clock) SetNow(t float64) {
	if t < c.now {
		panic(fmt.Sprintf("simclock: set now %v before now %v", t, c.now))
	}
	c.now = t
}
