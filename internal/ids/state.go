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

// State exports the detection state.
func (d *IDS) State() State {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := State{
		Alerts:   append([]Alert(nil), d.alerts...),
		Arrival:  make(map[string][]float64, len(d.arrival)),
		LastSeen: make(map[string]float64, len(d.lastSeen)),
		LastGPS:  make(map[string]uavsim.GPSFix, len(d.lastGPS)),
		LastOdo:  make(map[string]geo.LatLng, len(d.lastOdo)),
		HasOdo:   make(map[string]bool, len(d.hasOdo)),
		LastHit:  make(map[string]float64, len(d.lastHit)),
	}
	for k, v := range d.arrival {
		s.Arrival[k] = append([]float64(nil), v...)
	}
	for k, v := range d.lastSeen {
		s.LastSeen[k] = v
	}
	for k, v := range d.lastGPS {
		s.LastGPS[k] = v
	}
	for k, v := range d.lastOdo {
		s.LastOdo[k] = v
	}
	for k, v := range d.hasOdo {
		s.HasOdo[k] = v
	}
	for k, v := range d.lastHit {
		s.LastHit[k] = v
	}
	return s
}

// Restore overwrites the detection state.
func (d *IDS) Restore(s State) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.alerts = append(d.alerts[:0:0], s.Alerts...)
	d.pending = nil
	d.arrival = make(map[string][]float64, len(s.Arrival))
	for k, v := range s.Arrival {
		d.arrival[k] = append([]float64(nil), v...)
	}
	d.lastSeen = make(map[string]float64, len(s.LastSeen))
	for k, v := range s.LastSeen {
		d.lastSeen[k] = v
	}
	d.lastGPS = make(map[string]uavsim.GPSFix, len(s.LastGPS))
	for k, v := range s.LastGPS {
		d.lastGPS[k] = v
	}
	d.lastOdo = make(map[string]geo.LatLng, len(s.LastOdo))
	for k, v := range s.LastOdo {
		d.lastOdo[k] = v
	}
	d.hasOdo = make(map[string]bool, len(s.HasOdo))
	for k, v := range s.HasOdo {
		d.hasOdo[k] = v
	}
	d.lastHit = make(map[string]float64, len(s.LastHit))
	for k, v := range s.LastHit {
		d.lastHit[k] = v
	}
}
