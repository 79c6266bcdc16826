package platform

// This file is the one mission recipe every entry point builds from —
// the mission CLI, the ground station, the mission host and campaign
// runs: build the seeded world and scene, arm the optional chaos plan,
// attach the link-quality layer, start the (possibly multi-site)
// mission and register the fault timeline. The same recipe therefore
// flies the same mission, with the same Digest, wherever it is built.
// It lives in platform, not scenario, because the scenario package
// sits below platform in the import graph.

import (
	"errors"
	"fmt"
	"strings"

	"sesame/internal/chaos"
	"sesame/internal/detection"
	"sesame/internal/geo"
	"sesame/internal/linksim"
	"sesame/internal/scenario"
	"sesame/internal/uavsim"
)

// classicHome is every classic vehicle's home (Nicosia, Cyprus, where
// the paper's field trials flew).
var classicHome = geo.LatLng{Lat: 35.1856, Lng: 33.3823}

// classicArea is the classic survey square: side metres on a side,
// its south-west corner 80 m north-east of classicHome.
func classicArea(side float64) geo.Polygon {
	a := geo.Destination(classicHome, 45, 80)
	b := geo.Destination(a, 90, side)
	c := geo.Destination(b, 0, side)
	d := geo.Destination(a, 0, side)
	return geo.Polygon{a, b, c, d}
}

// Recipe is everything that fixes a mission before its first tick:
// either the classic mission (Scenario nil) or a declarative scenario.
// Building one recipe twice yields bit-identical missions.
type Recipe struct {
	// Seed drives every random stream of the classic mission's world; a
	// scenario carries its own seed.
	Seed int64
	// UAVs u1..uN, homed at classicHome, sweep the AreaSideM survey
	// square with Persons detection targets scattered in it (none when
	// Persons <= 0) for HorizonS seconds after the climb-out.
	UAVs      int
	Persons   int
	AreaSideM float64
	HorizonS  float64
	// Chaos arms a fault-injection plan over the classic mission.
	Chaos *chaos.Plan
	// Link puts every classic vehicle behind one link profile from
	// launch on.
	Link *LinkPlan
	// Scenario, when set, replaces every classic field: it declares its
	// own seed, world, fleet, links, timeline, chaos plan and horizon.
	Scenario *scenario.Scenario
}

// LinkPlan is a link-quality layer over a classic mission: Profile on
// every vehicle's link (IDS alerts included) from launch on, plus an
// optional hard outage on one vehicle, counted from launch.
type LinkPlan struct {
	// Name keys the layer's RNG streams.
	Name         string
	Profile      linksim.Profile
	OutageUAV    string
	OutageStartS float64
	OutageDurS   float64
}

// Launch is a built mission, started and ready to tick. Close the
// Platform when done; the layers have no resources of their own.
type Launch struct {
	World    *uavsim.World
	Platform *Platform
	// Links is the link-quality layer (nil when the recipe has none).
	Links *linksim.Layer
	// Chaos is the armed infrastructure fault layer (nil when the
	// recipe has no chaos plan).
	Chaos *chaos.Layer
	// Start is the launch time, before the climb-out; the fault
	// timeline and link outages count from here.
	Start float64
	// End is when the mission's horizon runs out, counted from the end
	// of the climb-out.
	End float64
}

// LaunchScenario builds a scenario into a running mission: world,
// scene, platform (with the scenario attached to cfg), link layer,
// chaos layer and fault timeline, with the mission started over every
// site. cfg supplies the platform calibration; its Scenario,
// Visibility and UseThermalBelow fields are overwritten from the
// scenario itself.
func LaunchScenario(sc *scenario.Scenario, cfg Config) (*Launch, error) {
	if sc == nil {
		return nil, errors.New("platform: nil scenario")
	}
	return Recipe{Scenario: sc}.Build(cfg)
}

// Build constructs the recipe's mission with the platform calibrated
// by cfg, and starts it.
func (r Recipe) Build(cfg Config) (*Launch, error) {
	sc := r.Scenario
	var (
		w       *uavsim.World
		scene   *detection.Scene
		areas   []geo.Polygon
		horizon = r.HorizonS
		plan    = r.Chaos
		err     error
	)
	if sc != nil {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		if w, err = sc.BuildWorld(); err != nil {
			return nil, err
		}
		if scene, err = sc.BuildScene(w); err != nil {
			return nil, err
		}
		areas, horizon, plan = sc.Areas(), sc.HorizonS, sc.Chaos
		cfg.Scenario = sc
	} else {
		w = uavsim.NewWorld(classicHome, r.Seed)
		for i := 1; i <= r.UAVs; i++ {
			if _, err := w.AddUAV(uavsim.UAVConfig{ID: fmt.Sprintf("u%d", i), Home: classicHome, CruiseSpeedMS: 12}); err != nil {
				return nil, err
			}
		}
		areas = []geo.Polygon{classicArea(r.AreaSideM)}
		if r.Persons > 0 {
			if scene, err = detection.NewRandomScene(areas[0], r.Persons, 0.2, w.Clock.Stream("scene")); err != nil {
				return nil, err
			}
		}
	}
	var chaosLayer *chaos.Layer
	if plan != nil {
		if chaosLayer, err = chaos.New(w.Clock, *plan); err != nil {
			return nil, err
		}
		if mb := chaosLayer.MonitorBuilder(); mb != nil {
			// Copy-on-append: never mutate the caller's slice.
			cfg.ExtraMonitors = append(cfg.ExtraMonitors[:len(cfg.ExtraMonitors):len(cfg.ExtraMonitors)], mb)
		}
	}
	p, err := New(w, scene, cfg)
	if err != nil {
		return nil, err
	}
	// The link layer attaches before chaos so chaos publish failures
	// are decided first.
	var links *linksim.Layer
	switch {
	case sc != nil && len(sc.Links) > 0:
		links = linksim.New(w.Clock, "scenario")
		links.AttachBus(w.Bus)
	case sc == nil && r.Link != nil:
		links = linksim.New(w.Clock, r.Link.Name)
		links.AttachBus(w.Bus)
		links.AttachBroker(p.Broker, func(topic string) string {
			if uav, ok := strings.CutPrefix(topic, "alerts/ids/"); ok {
				return uav
			}
			return ""
		})
		for i := 1; i <= r.UAVs; i++ {
			links.Link(fmt.Sprintf("u%d", i)).SetProfile(r.Link.Profile)
		}
	}
	p.SetLinks(links)
	if chaosLayer != nil {
		chaosLayer.AttachBus(w.Bus)
		chaosLayer.AttachBroker(p.Broker)
		if hook := chaosLayer.DBHook(ErrUnavailable); hook != nil {
			p.DB.SetFaultHook(hook)
		}
	}
	// Timelines and outage windows count from launch; StartMissionSites
	// runs the climb-out, so capture the clock first.
	start := w.Clock.Now()
	if err := p.StartMissionSites(areas); err != nil {
		p.Close()
		return nil, err
	}
	if sc != nil {
		if links != nil {
			sc.ApplyLinks(links, start)
		}
		if err := sc.ScheduleTimeline(w, start); err != nil {
			p.Close()
			return nil, err
		}
	} else if r.Link != nil && r.Link.OutageDurS > 0 {
		from := start + r.Link.OutageStartS
		links.Link(r.Link.OutageUAV).AddOutage(from, from+r.Link.OutageDurS)
	}
	return &Launch{World: w, Platform: p, Links: links, Chaos: chaosLayer,
		Start: start, End: w.Clock.Now() + horizon}, nil
}
