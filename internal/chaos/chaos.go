// Package chaos is the deterministic fault-injection harness: a
// declarative, seeded plan of infrastructure faults (monitor
// panics/errors/latency spikes, bus and broker publish failures,
// database brownouts, recorder write/fsync/disk-full errors, checkpoint
// corruption, campaign worker failures) injected through the small
// seams the rest of the system already exposes — Config.ExtraMonitors,
// rosbus/mqttlite WrapFilter, Database.SetFaultHook, flightrec.Options
// and campaign.Options.
//
// Every injection decision is a pure function of (plan seed, fault
// rule, target key, floor of the simulation time): no mutable state is
// kept between decisions. That makes chaos-on runs bit-reproducible by
// (seed, plan) and invariant to worker count, cell layout and
// checkpoint/resume — the same determinism contract the rest of the
// platform is gated on.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"

	"sesame/internal/eddi"
	"sesame/internal/flightrec"
	"sesame/internal/mqttlite"
	"sesame/internal/rosbus"
	"sesame/internal/simclock"
	"sesame/internal/strictjson"
)

// Window bounds a fault rule in simulation time. ToS == 0 leaves the
// window open-ended.
type Window struct {
	FromS float64 `json:"from_s,omitempty"`
	ToS   float64 `json:"to_s,omitempty"`
}

func (w Window) contains(t float64) bool {
	if t < w.FromS {
		return false
	}
	return w.ToS <= 0 || t < w.ToS
}

func (w Window) validate(what string) error {
	if w.FromS < 0 || math.IsNaN(w.FromS) || math.IsInf(w.FromS, 0) {
		return fmt.Errorf("chaos: %s: window from_s %v invalid", what, w.FromS)
	}
	if math.IsNaN(w.ToS) || math.IsInf(w.ToS, 0) || (w.ToS != 0 && w.ToS <= w.FromS) {
		return fmt.Errorf("chaos: %s: window to_s %v invalid (must be 0 or > from_s)", what, w.ToS)
	}
	return nil
}

// Monitor fault modes.
const (
	ModePanic   = "panic"
	ModeError   = "error"
	ModeLatency = "latency"
)

// MonitorFault injects failures into a UAV's EDDI monitor chain via a
// chaos monitor appended through Config.ExtraMonitors.
type MonitorFault struct {
	// UAV restricts the fault to one vehicle; empty hits every UAV.
	UAV string `json:"uav,omitempty"`
	// Mode is "panic", "error" or "latency".
	Mode string `json:"mode"`
	// Window bounds when the fault may fire.
	Window Window `json:"window,omitempty"`
	// Prob is the per-second firing probability in [0,1].
	Prob float64 `json:"prob"`
	// LatencyUS is the busy-spin duration for "latency" mode, in
	// microseconds of wall time (sim state is never touched, so digests
	// are unchanged; the spike only stresses the concurrent observe
	// phase).
	LatencyUS int `json:"latency_us,omitempty"`
}

// PublishFault fails rosbus or mqttlite publishes.
type PublishFault struct {
	// Match is a topic prefix; empty matches every topic.
	Match  string  `json:"match,omitempty"`
	Window Window  `json:"window,omitempty"`
	Prob   float64 `json:"prob"`
}

// Brownout fails mission-database writes with the platform's
// retryable unavailability error.
type Brownout struct {
	// UAV restricts the brownout to one vehicle's writes; empty hits all.
	UAV    string  `json:"uav,omitempty"`
	Window Window  `json:"window,omitempty"`
	Prob   float64 `json:"prob"`
}

// Recorder fault operations.
const (
	OpWrite           = "write"
	OpSync            = "sync"
	OpCreate          = "create"
	OpCorruptSnapshot = "corrupt-snapshot"
)

// RecorderFault injects flight-recorder failures: failed segment
// writes/fsyncs ("write", "sync"), disk-full segment creation
// ("create") or corrupted checkpoint payloads ("corrupt-snapshot").
type RecorderFault struct {
	// Op is "write", "sync", "create" or "corrupt-snapshot".
	Op     string  `json:"op"`
	Window Window  `json:"window,omitempty"`
	Prob   float64 `json:"prob"`
}

// WorkerFault fails campaign run executions. Attempts > 0 fails the
// first Attempts attempts of each matched run deterministically (then
// lets it succeed); Attempts == 0 draws per (run, attempt) with Prob.
type WorkerFault struct {
	Prob float64 `json:"prob,omitempty"`
	// Indices restricts the fault to specific run indices; empty hits
	// every run.
	Indices []int `json:"indices,omitempty"`
	// Attempts fails that many leading attempts per matched run.
	Attempts int `json:"attempts,omitempty"`
}

// Plan is the declarative chaos schedule. The zero plan injects
// nothing; a Layer built from it is inert.
type Plan struct {
	Name     string          `json:"name,omitempty"`
	Seed     int64           `json:"seed"`
	Monitors []MonitorFault  `json:"monitors,omitempty"`
	Bus      []PublishFault  `json:"bus,omitempty"`
	Broker   []PublishFault  `json:"broker,omitempty"`
	DB       []Brownout      `json:"db,omitempty"`
	Recorder []RecorderFault `json:"recorder,omitempty"`
	Workers  []WorkerFault   `json:"workers,omitempty"`
}

// LoadPlan parses and validates a JSON chaos plan. Unknown fields are
// rejected (the same strictness as campaign spec parsing): a typo in a
// fault schedule must fail loudly, not silently disarm the fault.
func LoadPlan(data []byte) (Plan, error) {
	var p Plan
	if err := strictjson.Decode(data, &p); err != nil {
		return Plan{}, fmt.Errorf("chaos: parsing plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

func validProb(p float64) bool {
	return !math.IsNaN(p) && p >= 0 && p <= 1
}

// Validate checks every fault rule's mode, probability and window.
func (p *Plan) Validate() error {
	for i, f := range p.Monitors {
		what := fmt.Sprintf("monitors[%d]", i)
		switch f.Mode {
		case ModePanic, ModeError, ModeLatency:
		default:
			return fmt.Errorf("chaos: %s: unknown mode %q", what, f.Mode)
		}
		if !validProb(f.Prob) {
			return fmt.Errorf("chaos: %s: prob %v outside [0,1]", what, f.Prob)
		}
		if f.LatencyUS < 0 {
			return fmt.Errorf("chaos: %s: latency_us %d negative", what, f.LatencyUS)
		}
		if err := f.Window.validate(what); err != nil {
			return err
		}
	}
	for i, f := range p.Bus {
		what := fmt.Sprintf("bus[%d]", i)
		if !validProb(f.Prob) {
			return fmt.Errorf("chaos: %s: prob %v outside [0,1]", what, f.Prob)
		}
		if err := f.Window.validate(what); err != nil {
			return err
		}
	}
	for i, f := range p.Broker {
		what := fmt.Sprintf("broker[%d]", i)
		if !validProb(f.Prob) {
			return fmt.Errorf("chaos: %s: prob %v outside [0,1]", what, f.Prob)
		}
		if err := f.Window.validate(what); err != nil {
			return err
		}
	}
	for i, f := range p.DB {
		what := fmt.Sprintf("db[%d]", i)
		if !validProb(f.Prob) {
			return fmt.Errorf("chaos: %s: prob %v outside [0,1]", what, f.Prob)
		}
		if err := f.Window.validate(what); err != nil {
			return err
		}
	}
	for i, f := range p.Recorder {
		what := fmt.Sprintf("recorder[%d]", i)
		switch f.Op {
		case OpWrite, OpSync, OpCreate, OpCorruptSnapshot:
		default:
			return fmt.Errorf("chaos: %s: unknown op %q", what, f.Op)
		}
		if !validProb(f.Prob) {
			return fmt.Errorf("chaos: %s: prob %v outside [0,1]", what, f.Prob)
		}
		if err := f.Window.validate(what); err != nil {
			return err
		}
	}
	for i, f := range p.Workers {
		what := fmt.Sprintf("workers[%d]", i)
		if !validProb(f.Prob) {
			return fmt.Errorf("chaos: %s: prob %v outside [0,1]", what, f.Prob)
		}
		if f.Attempts < 0 {
			return fmt.Errorf("chaos: %s: attempts %d negative", what, f.Attempts)
		}
		for _, idx := range f.Indices {
			if idx < 0 {
				return fmt.Errorf("chaos: %s: run index %d negative", what, idx)
			}
		}
	}
	return nil
}

// Stats counts the injections a Layer performed. Counters are
// informational (they are process-local, not part of any digest).
type Stats struct {
	MonitorPanics  uint64 `json:"monitor_panics"`
	MonitorErrors  uint64 `json:"monitor_errors"`
	MonitorLatency uint64 `json:"monitor_latency"`
	BusFailures    uint64 `json:"bus_failures"`
	BrokerFailures uint64 `json:"broker_failures"`
	DBFailures     uint64 `json:"db_failures"`
	RecorderFaults uint64 `json:"recorder_faults"`
	WorkerFailures uint64 `json:"worker_failures"`
}

// Total sums every injection counter.
func (s Stats) Total() uint64 {
	return s.MonitorPanics + s.MonitorErrors + s.MonitorLatency +
		s.BusFailures + s.BrokerFailures + s.DBFailures +
		s.RecorderFaults + s.WorkerFailures
}

// Layer executes a Plan against a running system. All hooks read only
// the plan and the simulation clock; the atomic counters below are the
// only mutable state and never feed back into decisions.
type Layer struct {
	clock *simclock.Clock
	plan  Plan

	monitorPanics  atomic.Uint64
	monitorErrors  atomic.Uint64
	monitorLatency atomic.Uint64
	busFailures    atomic.Uint64
	brokerFailures atomic.Uint64
	dbFailures     atomic.Uint64
	recorderFaults atomic.Uint64
	workerFailures atomic.Uint64
}

// New builds a Layer driving plan off the given simulation clock.
func New(clock *simclock.Clock, plan Plan) (*Layer, error) {
	if clock == nil {
		return nil, fmt.Errorf("chaos: nil clock")
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Layer{clock: clock, plan: plan}, nil
}

// Plan returns the layer's (validated) plan.
func (l *Layer) Plan() Plan { return l.plan }

// Stats snapshots the injection counters.
func (l *Layer) Stats() Stats {
	return Stats{
		MonitorPanics:  l.monitorPanics.Load(),
		MonitorErrors:  l.monitorErrors.Load(),
		MonitorLatency: l.monitorLatency.Load(),
		BusFailures:    l.busFailures.Load(),
		BrokerFailures: l.brokerFailures.Load(),
		DBFailures:     l.dbFailures.Load(),
		RecorderFaults: l.recorderFaults.Load(),
		WorkerFailures: l.workerFailures.Load(),
	}
}

// hashString folds s into h (FNV-1a).
func hashString(h uint64, s string) uint64 {
	const prime = 1099511628211
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// decide is the single Bernoulli draw behind every injection: a pure
// hash of (plan seed, rule key, one-second time bucket) compared
// against prob. Identical inputs always yield identical decisions, so
// serial, pooled, sharded and resumed runs inject the same faults at
// the same simulated times.
func (l *Layer) decide(key string, t float64, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	bucket := uint64(0)
	if t > 0 {
		bucket = uint64(math.Floor(t))
	}
	h := hashString(uint64(l.plan.Seed)^0x9e3779b97f4a7c15, key)
	h = mix64(h ^ mix64(bucket))
	return float64(h>>11)/float64(1<<53) < prob
}

// ---- monitor chain injection ----

// chaosMonitor is the eddi.Runtime appended to each UAV's chain. It is
// stateless: every Observe re-derives its decision from the snapshot
// time alone, so it survives checkpoint/resume without serialization.
type chaosMonitor struct {
	layer *Layer
	uav   string
}

// Name identifies the injected monitor in chain observability and
// panic attribution.
func (m *chaosMonitor) Name() string { return "chaos" }

// Observe fires at most one monitor fault per tick, in plan order.
func (m *chaosMonitor) Observe(s eddi.Snapshot) ([]eddi.Event, eddi.Advice, error) {
	for i, f := range m.layer.plan.Monitors {
		if f.UAV != "" && f.UAV != m.uav {
			continue
		}
		if !f.Window.contains(s.Time) {
			continue
		}
		key := fmt.Sprintf("monitor:%d:%s", i, m.uav)
		if !m.layer.decide(key, s.Time, f.Prob) {
			continue
		}
		switch f.Mode {
		case ModePanic:
			m.layer.monitorPanics.Add(1)
			panic(fmt.Sprintf("chaos: injected monitor panic (uav %s, t=%.0f)", m.uav, s.Time))
		case ModeError:
			m.layer.monitorErrors.Add(1)
			return nil, eddi.Advice{}, fmt.Errorf("chaos: injected monitor error (uav %s, t=%.0f)", m.uav, s.Time)
		case ModeLatency:
			m.layer.monitorLatency.Add(1)
			spin(f.LatencyUS)
		}
	}
	return nil, eddi.Advice{}, nil
}

// spin burns roughly us microseconds of wall time without touching any
// simulation state: digests are unchanged, only scheduling pressure on
// the concurrent observe phase is injected.
func spin(us int) {
	if us <= 0 {
		us = 100
	}
	// ~4 iterations per ns is a deliberate overestimate; the exact wall
	// duration is irrelevant, only that work happens off the sim clock.
	n := us * 400
	acc := uint64(1)
	for i := 0; i < n; i++ {
		acc = mix64(acc + uint64(i))
	}
	if acc == 0 { // never true; defeats dead-code elimination
		panic("unreachable")
	}
}

// MonitorBuilder returns a Config.ExtraMonitors-shaped constructor
// appending the chaos monitor to every UAV's chain. With no monitor
// faults in the plan it returns nil, keeping chaos-off chains
// untouched.
func (l *Layer) MonitorBuilder() func(uav string) (eddi.Runtime, error) {
	if len(l.plan.Monitors) == 0 {
		return nil
	}
	return func(uav string) (eddi.Runtime, error) {
		return &chaosMonitor{layer: l, uav: uav}, nil
	}
}

// ---- bus / broker injection ----

// AttachBus stacks the plan's bus faults over whatever filter is
// already installed (e.g. a linksim layer): a failed publish is
// consumed with an error before the inner filter sees it. Attach the
// chaos layer after any link layer.
func (l *Layer) AttachBus(b *rosbus.Bus) {
	if len(l.plan.Bus) == 0 {
		return
	}
	b.WrapFilter(func(next rosbus.Filter) rosbus.Filter {
		return func(msg rosbus.Message) (bool, error) {
			for i, f := range l.plan.Bus {
				if f.Match != "" && !strings.HasPrefix(msg.Topic, f.Match) {
					continue
				}
				if !f.Window.contains(msg.Stamp) {
					continue
				}
				if l.decide(fmt.Sprintf("bus:%d:%s", i, msg.Topic), msg.Stamp, f.Prob) {
					l.busFailures.Add(1)
					return false, fmt.Errorf("chaos: injected bus publish failure on %s", msg.Topic)
				}
			}
			if next == nil {
				return true, nil
			}
			return next(msg)
		}
	})
}

// AttachBroker stacks the plan's broker faults over the broker's
// current filter, failing matched publishes before delivery.
func (l *Layer) AttachBroker(b *mqttlite.Broker) {
	if len(l.plan.Broker) == 0 {
		return
	}
	b.WrapFilter(func(next mqttlite.Filter) mqttlite.Filter {
		return func(topic string, payload []byte) (bool, error) {
			now := l.clock.Now()
			for i, f := range l.plan.Broker {
				if f.Match != "" && !strings.HasPrefix(topic, f.Match) {
					continue
				}
				if !f.Window.contains(now) {
					continue
				}
				if l.decide(fmt.Sprintf("broker:%d:%s", i, topic), now, f.Prob) {
					l.brokerFailures.Add(1)
					return false, fmt.Errorf("chaos: injected broker publish failure on %s", topic)
				}
			}
			if next == nil {
				return true, nil
			}
			return next(topic, payload)
		}
	})
}

// ---- database injection ----

// DBHook returns a Database.SetFaultHook-shaped brownout injector.
// unavailable is the store's retryable sentinel (the platform's
// ErrUnavailable); taking it as a parameter keeps this package free of
// a platform dependency. With no DB faults in the plan it returns nil.
func (l *Layer) DBHook(unavailable error) func(uav string) error {
	if len(l.plan.DB) == 0 {
		return nil
	}
	return func(uav string) error {
		now := l.clock.Now()
		for i, f := range l.plan.DB {
			if f.UAV != "" && f.UAV != uav {
				continue
			}
			if !f.Window.contains(now) {
				continue
			}
			if l.decide(fmt.Sprintf("db:%d:%s", i, uav), now, f.Prob) {
				l.dbFailures.Add(1)
				return unavailable
			}
		}
		return nil
	}
}

// ---- flight recorder injection ----

// RecorderOptions overlays the plan's recorder faults onto base:
// "write"/"sync"/"create" rules install a FaultHook, a
// "corrupt-snapshot" rule installs a CorruptSnapshot payload
// truncator. Existing hooks on base are preserved and consulted after
// the chaos ones.
func (l *Layer) RecorderOptions(base flightrec.Options) flightrec.Options {
	var ops, corrupt []RecorderFault
	for _, f := range l.plan.Recorder {
		if f.Op == OpCorruptSnapshot {
			corrupt = append(corrupt, f)
		} else {
			ops = append(ops, f)
		}
	}
	if len(ops) > 0 {
		inner := base.FaultHook
		base.FaultHook = func(op string) error {
			now := l.clock.Now()
			for i, f := range ops {
				if f.Op != op {
					continue
				}
				if !f.Window.contains(now) {
					continue
				}
				if l.decide(fmt.Sprintf("recorder:%d:%s", i, op), now, f.Prob) {
					l.recorderFaults.Add(1)
					return fmt.Errorf("chaos: injected recorder %s failure (t=%.0f)", op, now)
				}
			}
			if inner != nil {
				return inner(op)
			}
			return nil
		}
	}
	if len(corrupt) > 0 {
		inner := base.CorruptSnapshot
		base.CorruptSnapshot = func(payload []byte) []byte {
			now := l.clock.Now()
			for i, f := range corrupt {
				if !f.Window.contains(now) {
					continue
				}
				if l.decide(fmt.Sprintf("corrupt:%d", i), now, f.Prob) {
					l.recorderFaults.Add(1)
					// Truncate rather than bit-flip: the shorter payload
					// fails flightrec.DecodeSnapshot outright, so resume
					// skips this checkpoint instead of trusting mangled
					// platform state.
					cut := len(payload) / 4
					if cut < 1 {
						cut = 1
					}
					payload = payload[:len(payload)-cut]
					break
				}
			}
			if inner != nil {
				return inner(payload)
			}
			return payload
		}
	}
	return base
}

// ---- campaign worker injection ----

// WorkerFailure decides whether run index's attempt-th execution
// attempt (1-based) fails. Glue it to campaign.Options.RunFaultHook;
// the decision depends only on (plan seed, rule, index, attempt), so a
// resumed sweep re-injects identically.
func (l *Layer) WorkerFailure(index, attempt int) error {
	for i, f := range l.plan.Workers {
		if len(f.Indices) > 0 {
			hit := false
			for _, idx := range f.Indices {
				if idx == index {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
		}
		if f.Attempts > 0 {
			if attempt <= f.Attempts {
				l.workerFailures.Add(1)
				return fmt.Errorf("chaos: injected worker failure (run %d attempt %d)", index, attempt)
			}
			continue
		}
		if l.decide(fmt.Sprintf("worker:%d:%d:%d", i, index, attempt), 0, f.Prob) {
			l.workerFailures.Add(1)
			return fmt.Errorf("chaos: injected worker failure (run %d attempt %d)", index, attempt)
		}
	}
	return nil
}

// ---- plan generation (property harness) ----

// GeneratePlan draws a random but valid plan from rng: every fault
// category may appear, windows and probabilities are kept in ranges
// that exercise the degradation machinery without disabling the whole
// mission. The generated plan always validates.
func GeneratePlan(rng *rand.Rand, uavs []string) Plan {
	plan := Plan{Name: "generated", Seed: rng.Int63()}
	pick := func() string {
		if len(uavs) == 0 || rng.Intn(2) == 0 {
			return ""
		}
		return uavs[rng.Intn(len(uavs))]
	}
	window := func() Window {
		from := math.Floor(rng.Float64() * 40)
		if rng.Intn(3) == 0 {
			return Window{FromS: from}
		}
		return Window{FromS: from, ToS: from + 1 + math.Floor(rng.Float64()*60)}
	}
	modes := []string{ModePanic, ModeError, ModeLatency}
	for n := rng.Intn(3); n > 0; n-- {
		plan.Monitors = append(plan.Monitors, MonitorFault{
			UAV:       pick(),
			Mode:      modes[rng.Intn(len(modes))],
			Window:    window(),
			Prob:      0.1 + 0.9*rng.Float64(),
			LatencyUS: 10 + rng.Intn(200),
		})
	}
	matches := []string{"", "telemetry/", "alerts/"}
	for n := rng.Intn(3); n > 0; n-- {
		plan.Bus = append(plan.Bus, PublishFault{
			Match:  matches[rng.Intn(len(matches))],
			Window: window(),
			Prob:   0.5 * rng.Float64(),
		})
	}
	for n := rng.Intn(2); n > 0; n-- {
		plan.Broker = append(plan.Broker, PublishFault{
			Window: window(),
			Prob:   0.5 * rng.Float64(),
		})
	}
	for n := rng.Intn(3); n > 0; n-- {
		plan.DB = append(plan.DB, Brownout{
			UAV:    pick(),
			Window: window(),
			Prob:   rng.Float64(),
		})
	}
	recOps := []string{OpWrite, OpSync, OpCreate, OpCorruptSnapshot}
	for n := rng.Intn(3); n > 0; n-- {
		plan.Recorder = append(plan.Recorder, RecorderFault{
			Op:     recOps[rng.Intn(len(recOps))],
			Window: window(),
			Prob:   rng.Float64(),
		})
	}
	for n := rng.Intn(2); n > 0; n-- {
		plan.Workers = append(plan.Workers, WorkerFault{
			Prob:     0.7 * rng.Float64(),
			Attempts: rng.Intn(3),
		})
	}
	return plan
}
