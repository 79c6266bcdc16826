package ids

import (
	"sesame/internal/geo"
	"sesame/internal/uavsim"
)

// State is the IDS's serializable detection state for the flight
// recorder (internal/flightrec). The bus subscription, broker wiring
// and observability handles are rebuilt by New/Instrument; pending is
// transient within one inspect call and is always empty between ticks,
// where checkpoints are taken.
type State struct {
	Alerts   []Alert                  `json:"alerts"`
	Arrival  map[string][]float64     `json:"arrival"`
	LastSeen map[string]float64       `json:"last_seen"`
	LastGPS  map[string]uavsim.GPSFix `json:"last_gps"`
	LastOdo  map[string]geo.LatLng    `json:"last_odo"`
	HasOdo   map[string]bool          `json:"has_odo"`
	LastHit  map[string]float64       `json:"last_hit"`
}

// State exports the detection state, converting the per-topic and
// per-UAV tracks to the checkpoint's map layout.
func (d *IDS) State() State {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := State{
		Alerts:   append([]Alert(nil), d.alerts...),
		Arrival:  make(map[string][]float64),
		LastSeen: make(map[string]float64),
		LastGPS:  make(map[string]uavsim.GPSFix),
		LastOdo:  make(map[string]geo.LatLng),
		HasOdo:   make(map[string]bool),
		LastHit:  make(map[string]float64, len(d.lastHit)),
	}
	for name, tt := range d.topics {
		if tt.hasArrival {
			s.Arrival[name] = append([]float64(nil), tt.arrival...)
		}
		if tt.armed {
			s.LastSeen[name] = tt.lastSeen
		}
	}
	for id, ut := range d.uavs {
		if ut.inGPS {
			s.LastGPS[id] = ut.gps
		}
		if ut.inOdo {
			s.LastOdo[id] = ut.odo
		}
		if ut.inHasOdo {
			s.HasOdo[id] = ut.hasOdo
		}
	}
	for k, v := range d.lastHit {
		s.LastHit[k] = v
	}
	return s
}

// Restore overwrites the detection state, rebuilding the tracks from
// the checkpoint's maps.
func (d *IDS) Restore(s State) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.alerts = append(d.alerts[:0:0], s.Alerts...)
	d.pending = nil
	d.topics = make(map[string]*topicTrack, len(s.Arrival))
	d.uavs = make(map[string]*uavTrack, len(s.LastGPS))
	for k, v := range s.Arrival {
		tt := d.topic(k)
		tt.arrival, tt.hasArrival = append([]float64(nil), v...), true
	}
	for k, v := range s.LastSeen {
		tt := d.topic(k)
		tt.lastSeen, tt.armed = v, true
	}
	for k, v := range s.LastGPS {
		ut := d.uav(k)
		ut.gps, ut.inGPS = v, true
	}
	for k, v := range s.LastOdo {
		ut := d.uav(k)
		ut.odo, ut.inOdo = v, true
	}
	for k, v := range s.HasOdo {
		ut := d.uav(k)
		ut.hasOdo, ut.inHasOdo = v, true
	}
	d.lastHit = make(map[string]float64, len(s.LastHit))
	for k, v := range s.LastHit {
		d.lastHit[k] = v
	}
}
