package platform

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"

	"sesame/internal/eddi"
	"sesame/internal/geo"
	"sesame/internal/uavsim"
)

// UAVStatus is the per-vehicle snapshot served to the GUI layer — the
// "blue box" content of the paper's Fig. 4.
type UAVStatus struct {
	ID          string     `json:"id"`
	Mode        string     `json:"mode"`
	Action      string     `json:"action"`
	Position    geo.LatLng `json:"position"`
	AltitudeM   float64    `json:"altitude_m"`
	SpeedMS     float64    `json:"speed_ms"`
	BatteryPct  float64    `json:"battery_pct"`
	BatteryTemp float64    `json:"battery_temp_c"`
	PoF         float64    `json:"pof"`
	Reliability string     `json:"reliability"`
	Uncertainty float64    `json:"perception_uncertainty"`
	Waypoints   int        `json:"waypoints_remaining"`
	Compromised bool       `json:"compromised"`
	CollocLand  bool       `json:"collaborative_landing"`
	Rescans     int        `json:"rescans"`
	// TelemetryAgeS is how stale the GCS's last-known-good telemetry
	// for this UAV is; LinkLost marks a fired lost-link watchdog.
	TelemetryAgeS float64 `json:"telemetry_age_s"`
	LinkLost      bool    `json:"link_lost"`
	// MonitorQuarantined marks a monitor chain the circuit breaker has
	// taken out of rotation (omitted while healthy so chaos-free status
	// snapshots — and their golden digests — are unchanged).
	MonitorQuarantined bool `json:"monitor_quarantined,omitempty"`
}

// RecorderStatus reports the flight recorder's degradation state. It
// only appears in Status after a persistent write failure has demoted
// recording to a counting no-op.
type RecorderStatus struct {
	Degraded bool   `json:"degraded"`
	Error    string `json:"error,omitempty"`
	// SkippedWrites counts recording operations suppressed since the
	// recorder degraded.
	SkippedWrites uint64 `json:"skipped_writes"`
}

// Status is the full platform snapshot — the Fig. 4 view as data.
type Status struct {
	Time     float64     `json:"time"`
	SESAME   bool        `json:"sesame_enabled"`
	Decision string      `json:"mission_decision"`
	UAVs     []UAVStatus `json:"uavs"`
	// Drops counts data-path operations (database writes, event
	// emissions, availability marks, flight commands, mission
	// management) that failed and were previously discarded silently.
	Drops DropCounters `json:"data_path_drops"`
	// DBRetries summarizes the database retry-with-backoff machinery.
	DBRetries RetryCounters `json:"database_retries"`
	// WorldDrops surfaces vehicle-side losses (refused telemetry
	// publishes) alongside the platform's own counters.
	WorldDrops uavsim.DropCounters `json:"world_drops"`
	// Observability is the deterministic counter subset of the metrics
	// registry (counters and histogram observation counts — never
	// wall-clock sums or buckets). Absent when observability is off, so
	// disabled runs serialize exactly as before.
	Observability map[string]uint64 `json:"observability,omitempty"`
	// Recorder surfaces flight-recorder degradation; nil (and absent)
	// while recording is healthy or disabled.
	Recorder *RecorderStatus `json:"recorder,omitempty"`
}

// Status captures a point-in-time snapshot of the fleet.
func (p *Platform) Status() Status {
	now := p.World.Clock.Now()
	s := Status{
		Time:       now,
		SESAME:     p.cfg.SESAME,
		Decision:   p.decision.String(),
		Drops:      p.drops.snapshot(),
		DBRetries:  p.retries.snapshot(),
		WorldDrops: p.World.Drops(),
	}
	if p.obs != nil {
		s.Observability = p.obs.reg.CounterValues()
	}
	if p.recDegraded {
		rs := &RecorderStatus{Degraded: true, SkippedWrites: p.recSkipped}
		if p.recErr != nil {
			rs.Error = p.recErr.Error()
		}
		s.Recorder = rs
	}
	for _, id := range p.order {
		st := p.states[id]
		u := st.uav
		us := UAVStatus{
			ID:                 id,
			Mode:               u.Mode().String(),
			Action:             st.action.String(),
			Position:           u.TruePosition(),
			AltitudeM:          u.AltitudeM(),
			SpeedMS:            u.SpeedMS(),
			BatteryPct:         u.Battery.ChargePct,
			BatteryTemp:        u.Battery.TempC,
			PoF:                st.lastAssessment.PoF,
			Reliability:        st.lastAssessment.Level.String(),
			Waypoints:          u.RemainingWaypoints(),
			CollocLand:         st.collocCtrl != nil,
			Rescans:            st.rescans,
			TelemetryAgeS:      st.telemetryAge(now),
			LinkLost:           st.lostLink,
			MonitorQuarantined: st.quarantined,
		}
		if st.hasUncert {
			us.Uncertainty = st.uncertainty
		}
		if p.Security != nil {
			us.Compromised = p.Security.Compromised(id)
		}
		s.UAVs = append(s.UAVs, us)
	}
	return s
}

// Digest fingerprints a mission's externally observable state: the
// fleet status, the mission decision, the full EDDI history and the
// fleet availability at 12 decimals. It is the one mission digest
// every entry point compares (CLI, mission host, campaign, experiments
// and the determinism tests): two runs of the same recipe digest equal
// iff their outputs are bit-identical. Status.Observability is left
// out, so instrumentation never moves a digest; with observability off
// that field is nil and omitted anyway, so those digests keep their
// bytes.
func Digest(p *Platform) string {
	status := p.Status()
	status.Observability = nil
	blob := struct {
		Status   Status
		Decision string
		History  []eddi.Event
	}{status, p.Decision().String(), p.Coordinator.History("")}
	data, err := json.Marshal(blob)
	if err != nil {
		return "digest-error: " + err.Error()
	}
	if avail, err := p.Availability(); err == nil {
		data = fmt.Appendf(data, "avail=%.12f", avail)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// Handler returns an http.Handler serving the platform status as JSON
// at "/" and the EDDI event history at "/events" — the web GUI data
// feed of §IV-A.
func (p *Platform) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(p.Status())
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		uav := r.URL.Query().Get("uav")
		type evOut struct {
			Kind     string  `json:"kind"`
			UAV      string  `json:"uav"`
			Time     float64 `json:"time"`
			Severity float64 `json:"severity"`
			Summary  string  `json:"summary"`
		}
		var out []evOut
		for _, ev := range p.Coordinator.History(uav) {
			out = append(out, evOut{
				Kind: ev.Kind.String(), UAV: ev.UAV, Time: ev.Time,
				Severity: ev.Severity, Summary: ev.Summary,
			})
		}
		_ = json.NewEncoder(w).Encode(out)
	})
	return mux
}
