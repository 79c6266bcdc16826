// Package ids implements the intrusion detection system of the
// Security EDDI architecture (paper §III-B). Where the paper's IDS
// inspects ROS network traffic, this one taps the rosbus middleware —
// the same vantage point — and applies detection rules to the message
// stream:
//
//   - unauthorized-node: a publisher name outside the topic's allow-list;
//   - message-injection: per-topic message rate above the declared
//     telemetry rate (a second publisher racing the legitimate one);
//   - gps-anomaly: sustained divergence between the GPS position feed
//     and the IMU/odometry track reported on the status topic — the
//     signature of GPS/position spoofing;
//   - teleport: consecutive GPS fixes implying a physically impossible
//     speed.
//
// Alerts are JSON-encoded and published to the mqttlite broker under
// alerts/ids/<uav>, where the Security EDDI scripts subscribe.
package ids

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"sesame/internal/geo"
	"sesame/internal/mqttlite"
	"sesame/internal/obsv"
	"sesame/internal/rosbus"
	"sesame/internal/uavsim"
)

// Alert types.
const (
	AlertUnauthorizedNode = "unauthorized-node"
	AlertMessageInjection = "message-injection"
	AlertGPSAnomaly       = "gps-anomaly"
	AlertTeleport         = "teleport"
	AlertLinkSilence      = "link-silence"
)

// Alert is one IDS finding.
type Alert struct {
	Type   string  `json:"type"`
	UAV    string  `json:"uav"`
	Topic  string  `json:"topic"`
	Detail string  `json:"detail"`
	Stamp  float64 `json:"stamp"`
}

// AlertTopic returns the broker topic alerts for uav are published on.
func AlertTopic(uav string) string { return "alerts/ids/" + uav }

// Config tunes the rule engine.
type Config struct {
	// AllowedPublishers maps a bus topic to the node names allowed to
	// publish on it. Topics absent from the map are unchecked. A
	// topic's entry is read once, when the IDS first sees the topic.
	AllowedPublishers map[string][]string
	// MaxRateHz is the per-topic message budget; rates above it raise
	// message-injection. Zero disables the rule.
	MaxRateHz float64
	// RateWindowS is the sliding window for rate estimation.
	RateWindowS float64
	// GPSDivergenceM raises gps-anomaly when the GPS track drifts this
	// far from the odometry track.
	GPSDivergenceM float64
	// MaxSpeedMS raises teleport when consecutive fixes imply a faster
	// ground speed.
	MaxSpeedMS float64
	// Cooldown suppresses duplicate alerts of the same (type, uav)
	// within this many seconds.
	CooldownS float64
	// SilenceTimeoutS raises link-silence when a previously active
	// topic stops carrying traffic for this long (jamming signature).
	// Zero disables the rule. Silence is checked lazily whenever any
	// other message arrives, mirroring a traffic-driven network IDS.
	SilenceTimeoutS float64
}

// DefaultConfig matches the experiment scenarios: 1 Hz telemetry,
// 10 m divergence bound, 30 m/s speed bound.
func DefaultConfig() Config {
	return Config{
		MaxRateHz:       1.5,
		RateWindowS:     8,
		GPSDivergenceM:  10,
		MaxSpeedMS:      30,
		CooldownS:       5,
		SilenceTimeoutS: 12,
	}
}

// IDS is the live detector. Create with New; detach with Close.
type IDS struct {
	cfg    Config
	broker *mqttlite.Broker
	cancel func()

	mu        sync.Mutex
	alerts    []Alert
	pending   []Alert
	topics    map[string]*topicTrack
	uavs      map[string]*uavTrack
	lastSweep float64            // newest stamp the silence sweep ran at
	lastHit   map[string]float64 // type+uav -> stamp of last alert

	// Observability mirrors (nil when uninstrumented; all nil-safe).
	// The per-rule evaluation counters are resolved once at Instrument:
	// inspect runs on every bus message, so the hot path must not pay a
	// labeled-series lookup per rule.
	mEvalAllow    *obsv.Counter
	mEvalRate     *obsv.Counter
	mEvalSilence  *obsv.Counter
	mEvalTeleport *obsv.Counter
	mEvalGPS      *obsv.Counter
	mAlerts       *obsv.CounterVec
	mSuppressed   *obsv.Counter
}

// New attaches the IDS to the bus and starts publishing alerts to the
// broker.
func New(bus *rosbus.Bus, broker *mqttlite.Broker, cfg Config) (*IDS, error) {
	if bus == nil || broker == nil {
		return nil, errors.New("ids: nil bus or broker")
	}
	if cfg.RateWindowS <= 0 {
		cfg.RateWindowS = 8
	}
	d := &IDS{
		cfg:     cfg,
		broker:  broker,
		topics:  make(map[string]*topicTrack),
		uavs:    make(map[string]*uavTrack),
		lastHit: make(map[string]float64),
	}
	cancel, err := bus.Tap(d.inspect)
	if err != nil {
		return nil, err
	}
	d.cancel = cancel
	return d, nil
}

// Instrument mirrors rule evaluations and alert emissions into reg. A
// nil registry leaves the IDS uninstrumented (nil handles are no-ops).
func (d *IDS) Instrument(reg *obsv.Registry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	evals := reg.CounterVec("sesame_ids_rule_evaluations_total",
		"Detection-rule evaluations, by rule.", "rule")
	d.mEvalAllow = evals.With("allow-list")
	d.mEvalRate = evals.With("rate")
	d.mEvalSilence = evals.With("silence")
	d.mEvalTeleport = evals.With("teleport")
	d.mEvalGPS = evals.With("gps-divergence")
	d.mAlerts = reg.CounterVec("sesame_ids_alerts_total",
		"Alerts raised (post-cooldown), by type.", "type")
	d.mSuppressed = reg.Counter("sesame_ids_alerts_suppressed_total",
		"Alerts suppressed by the per-(type,uav) cooldown.")
}

// Close detaches the IDS from the bus.
func (d *IDS) Close() {
	if d.cancel != nil {
		d.cancel()
		d.cancel = nil
	}
}

// Alerts returns a copy of all alerts raised so far.
func (d *IDS) Alerts() []Alert {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Alert(nil), d.alerts...)
}

// uavOf extracts the UAV id from a "/uav/<id>/<kind>" topic. It runs
// on every bus message, so it parses in place rather than splitting
// (the Split allocation dominated large-fleet tick profiles).
func uavOf(topic string) string {
	i := strings.IndexByte(topic, '/')
	if i < 0 {
		return ""
	}
	rest := topic[i+1:]
	if !strings.HasPrefix(rest, "uav/") {
		return ""
	}
	id := rest[len("uav/"):]
	if j := strings.IndexByte(id, '/'); j >= 0 {
		id = id[:j]
	}
	return id
}

// topicTrack is the per-topic detection state. Everything derivable
// from the topic name is resolved once, when the topic is first seen,
// so inspecting a message costs one map lookup.
type topicTrack struct {
	name    string
	uavID   string    // uavOf(name)
	uav     *uavTrack // the track of uavID
	allowed []string  // allow-list entry
	checked bool      // the topic has an allow-list entry

	// arrival holds the recent stamps of the rate rule; hasArrival
	// records that the rule has tracked the topic.
	arrival    []float64
	hasArrival bool
	// lastSeen is the newest stamp of the silence rule; armed is false
	// until the topic carries traffic and again after it raised.
	lastSeen float64
	armed    bool
}

// uavTrack is the per-UAV state of the telemetry rules, keyed by the
// UAV id the payload carries.
type uavTrack struct {
	gps    uavsim.GPSFix // newest usable fix (teleport rule)
	odo    geo.LatLng    // newest odometry position (divergence rule)
	hasOdo bool          // the divergence rule is armed
	// Which entries the checkpoint State holds for this UAV. Restore
	// accepts any combination and State reproduces it.
	inGPS, inOdo, inHasOdo bool
}

// topic returns the track of name, creating it on first sight.
// Callers hold d.mu.
func (d *IDS) topic(name string) *topicTrack {
	if tt, ok := d.topics[name]; ok {
		return tt
	}
	id := uavOf(name)
	allowed, checked := d.cfg.AllowedPublishers[name]
	tt := &topicTrack{name: name, uavID: id, uav: d.uav(id), allowed: allowed, checked: checked}
	d.topics[name] = tt
	return tt
}

// uav returns the track of id, creating it on first sight. Callers
// hold d.mu.
func (d *IDS) uav(id string) *uavTrack {
	ut, ok := d.uavs[id]
	if !ok {
		ut = &uavTrack{}
		d.uavs[id] = ut
	}
	return ut
}

// payloadUAV returns the track of the UAV a payload names: the topic's
// own UAV unless the payload names another.
func (d *IDS) payloadUAV(tt *topicTrack, id string) *uavTrack {
	if id == tt.uavID {
		return tt.uav
	}
	return d.uav(id)
}

// inspect is the bus tap. Alerts are accumulated under the lock and
// published to the broker after it is released, so broker handlers may
// freely publish back onto the bus without deadlocking the tap.
func (d *IDS) inspect(m rosbus.Message) {
	d.mu.Lock()
	d.pending = d.pending[:0]
	tt := d.topic(m.Topic)
	uav := tt.uavID

	// Rule 1: publisher allow-list.
	if tt.checked {
		d.mEvalAllow.Inc()
		ok := false
		for _, a := range tt.allowed {
			if a == m.Publisher {
				ok = true
				break
			}
		}
		if !ok {
			d.raise(Alert{
				Type:   AlertUnauthorizedNode,
				UAV:    uav,
				Topic:  m.Topic,
				Detail: fmt.Sprintf("publisher %q not in allow-list", m.Publisher),
				Stamp:  m.Stamp,
			})
		}
	}

	// Rule 2: rate anomaly.
	if d.cfg.MaxRateHz > 0 {
		d.mEvalRate.Inc()
		cutoff := m.Stamp - d.cfg.RateWindowS
		keep := tt.arrival[:0]
		for _, s := range tt.arrival {
			if s >= cutoff {
				keep = append(keep, s)
			}
		}
		keep = append(keep, m.Stamp)
		tt.arrival, tt.hasArrival = keep, true
		rate := float64(len(keep)) / d.cfg.RateWindowS
		if rate > d.cfg.MaxRateHz && len(keep) >= 4 {
			d.raise(Alert{
				Type:   AlertMessageInjection,
				UAV:    uav,
				Topic:  m.Topic,
				Detail: fmt.Sprintf("rate %.2f Hz exceeds %.2f Hz budget", rate, d.cfg.MaxRateHz),
				Stamp:  m.Stamp,
			})
		}
	}

	// Rule: link silence. Lazily scan tracked topics whenever traffic
	// arrives; a topic quiet past the timeout looks like jamming. All
	// messages of one simulation step carry the same stamp, and within a
	// stamp no tracked entry can newly cross the timeout, so one sweep
	// per distinct stamp raises exactly the alerts a per-message sweep
	// would — without the O(topics) scan on every message, which made
	// each simulation step quadratic in fleet size.
	if d.cfg.SilenceTimeoutS > 0 {
		if m.Stamp > d.lastSweep {
			d.lastSweep = m.Stamp
			d.mEvalSilence.Inc()
			// Collect expired topics first and raise in sorted order: a
			// fleet-wide outage silences several topics at the same stamp,
			// and alert order must not depend on map iteration — the
			// downstream security events are digested.
			var silent []*topicTrack
			for _, other := range d.topics {
				if other.armed && other != tt && m.Stamp-other.lastSeen > d.cfg.SilenceTimeoutS {
					silent = append(silent, other)
				}
			}
			sort.Slice(silent, func(i, j int) bool { return silent[i].name < silent[j].name })
			for _, st := range silent {
				d.raise(Alert{
					Type:   AlertLinkSilence,
					UAV:    st.uavID,
					Topic:  st.name,
					Detail: fmt.Sprintf("no traffic for %.0f s (timeout %.0f s)", m.Stamp-st.lastSeen, d.cfg.SilenceTimeoutS),
					Stamp:  m.Stamp,
				})
				// Re-arm only after fresh traffic.
				st.lastSeen, st.armed = 0, false
			}
		}
		if m.Stamp > tt.lastSeen {
			tt.lastSeen, tt.armed = m.Stamp, true
		}
	}

	// Rules 3 & 4 consume typed telemetry.
	switch p := m.Payload.(type) {
	case uavsim.GPSFix:
		d.inspectGPS(m, p, tt)
	case uavsim.StatusReport:
		ut := d.payloadUAV(tt, p.UAV)
		ut.odo, ut.inOdo = p.Position, true
		ut.hasOdo, ut.inHasOdo = true, true
	}

	toPublish := append([]Alert(nil), d.pending...)
	d.mu.Unlock()
	for _, a := range toPublish {
		payload, err := json.Marshal(a)
		if err != nil {
			continue
		}
		topic := AlertTopic(a.UAV)
		if a.UAV == "" {
			topic = "alerts/ids/unknown"
		}
		_ = d.broker.Publish(topic, payload, false)
	}
}

func (d *IDS) inspectGPS(m rosbus.Message, fix uavsim.GPSFix, tt *topicTrack) {
	if fix.Quality == uavsim.GPSLost {
		return
	}
	ut := d.payloadUAV(tt, fix.UAV)
	// Teleport: implied speed between consecutive fixes.
	if prev := ut.gps; ut.inGPS && fix.Stamp > prev.Stamp {
		d.mEvalTeleport.Inc()
		dt := fix.Stamp - prev.Stamp
		speed := geo.Haversine(prev.Position, fix.Position) / dt
		if d.cfg.MaxSpeedMS > 0 && speed > d.cfg.MaxSpeedMS {
			d.raise(Alert{
				Type:   AlertTeleport,
				UAV:    fix.UAV,
				Topic:  m.Topic,
				Detail: fmt.Sprintf("implied speed %.1f m/s exceeds %.1f m/s", speed, d.cfg.MaxSpeedMS),
				Stamp:  fix.Stamp,
			})
		}
	}
	ut.gps, ut.inGPS = fix, true

	// GPS/odometry divergence.
	if d.cfg.GPSDivergenceM > 0 && ut.hasOdo {
		d.mEvalGPS.Inc()
		div := geo.Haversine(fix.Position, ut.odo)
		if div > d.cfg.GPSDivergenceM {
			d.raise(Alert{
				Type:   AlertGPSAnomaly,
				UAV:    fix.UAV,
				Topic:  m.Topic,
				Detail: fmt.Sprintf("GPS diverges %.1f m from odometry (bound %.1f m)", div, d.cfg.GPSDivergenceM),
				Stamp:  fix.Stamp,
			})
		}
	}
}

// raise records an alert and queues it for publication, respecting the
// cooldown. Callers hold d.mu.
func (d *IDS) raise(a Alert) {
	key := a.Type + "|" + a.UAV
	if last, ok := d.lastHit[key]; ok && a.Stamp-last < d.cfg.CooldownS {
		d.mSuppressed.Inc()
		return
	}
	d.lastHit[key] = a.Stamp
	d.mAlerts.With(a.Type).Inc()
	d.alerts = append(d.alerts, a)
	d.pending = append(d.pending, a)
}
