package campaign

// One campaign run: build the platform exactly as the (seed, params)
// tuple dictates, tick to the horizon, and reduce the mission to a
// compact Result. Construction is a pure function of the tuple — the
// same contract that makes flightrec resume work — so any journaled
// run re-executes bit-identically for triage (RerunOne).

import (
	"fmt"
	"math"
	"strings"

	"sesame/internal/eddi"
	"sesame/internal/platform"
	"sesame/internal/scenario"
	"sesame/internal/uavsim"
)

// Result is the compact per-run record streamed into the aggregator
// and journaled for resume. Latencies of -1 mean "not applicable or
// never detected"; the aggregator separates the two via the fault spec.
type Result struct {
	Index int    `json:"index"`
	Key   string `json:"key"`
	Seed  int64  `json:"seed"`
	Fleet int    `json:"fleet"`
	Cells int    `json:"cells"`
	Link  string `json:"link"`
	Fault string `json:"fault"`
	// Scenario is the generated archetype this run flew ("" for the
	// classic mission, keeping legacy journals and JSONL byte-stable).
	Scenario string `json:"scenario,omitempty"`

	Completed    bool    `json:"completed"`
	CompletionS  float64 `json:"completion_s"`
	Ticks        uint64  `json:"ticks"`
	Decision     string  `json:"decision"`
	Availability float64 `json:"availability"`

	// SafetyDetectS / SecurityDetectS are the delays from fault
	// injection to the first matching EDDI finding on the injected UAV.
	SafetyDetectS   float64 `json:"safety_detect_s"`
	SecurityDetectS float64 `json:"security_detect_s"`

	LostLinkEvents   int `json:"lost_link_events"`
	CompromiseEvents int `json:"compromise_events"`

	Drops      uint64 `json:"drops"`
	WorldDrops uint64 `json:"world_drops"`
	DBRetries  uint64 `json:"db_retries"`

	LinkOffered   uint64 `json:"link_offered"`
	LinkDelivered uint64 `json:"link_delivered"`
	LinkDropped   uint64 `json:"link_dropped"`

	// Digest fingerprints the externally observable final state; a
	// standalone re-execution from (seed, params) must reproduce it.
	Digest string `json:"digest"`

	// Status is "" for a normally executed run and "failed" for a run
	// quarantined after exhausting its retry budget (Options.RunRetries).
	// Attempts counts executions when more than one was needed; Error
	// holds the final attempt's failure. All three are omitempty so
	// campaigns without failures serialize byte-identically to before.
	Status   string `json:"status,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Failed reports whether the run was quarantined rather than executed.
func (r Result) Failed() bool { return r.Status == "failed" }

// executeRun flies one grid point to its horizon and reduces it to a
// Result. The platform is forced onto the serial scheduler path
// (Workers=1): campaign parallelism is run-level, and the scheduler is
// bit-identical across pool sizes anyway. A classic run flies
// spec.HorizonS from launch, climb-out included, and injects its fault
// variant counted from launch; a scenarios-axis run takes world, fleet,
// links, timeline and horizon from the generated archetype, so the
// (seed, archetype, fleet, cells) tuple fully determines it.
func executeRun(spec *Spec, run Run) (Result, error) {
	res := Result{
		Index: run.Index, Key: run.Key(), Seed: run.Seed,
		Fleet: run.Fleet, Cells: run.Cells,
		Link: run.Link.Name, Fault: run.Fault.Name,
		Scenario:      run.Scenario,
		SafetyDetectS: -1, SecurityDetectS: -1,
	}
	recipe := platform.Recipe{
		Seed: run.Seed, UAVs: run.Fleet, Persons: spec.Persons,
		AreaSideM: spec.AreaSideM, HorizonS: spec.HorizonS,
		Link: &platform.LinkPlan{
			Name: run.Link.Name, Profile: run.Link.Profile, OutageUAV: run.Link.OutageUAV,
			OutageStartS: run.Link.OutageStartS, OutageDurS: run.Link.OutageDurS,
		},
	}
	if run.Scenario != "" {
		gen, err := scenario.GenerateN(run.Seed, run.Scenario, run.Fleet)
		if err != nil {
			return res, err
		}
		recipe = platform.Recipe{Scenario: gen}
	}
	cfg := platform.DefaultConfig()
	cfg.Workers = 1
	cfg.Cells = run.Cells
	l, err := recipe.Build(cfg)
	if err != nil {
		return res, err
	}
	p, w := l.Platform, l.World
	defer p.Close()

	start, end := l.Start, l.Start+spec.HorizonS
	if run.Scenario != "" {
		start, end = w.Clock.Now(), l.End
	}
	if run.Fault.BatteryAtS > 0 {
		at := start + run.Fault.BatteryAtS
		if err := w.ScheduleFault(uavsim.BatteryCollapseFault(at, run.Fault.BatteryUAV, 70, 40)); err != nil {
			return res, err
		}
	}
	if run.Fault.SpoofAtS > 0 {
		at := start + run.Fault.SpoofAtS
		if err := w.ScheduleFault(uavsim.GPSSpoofFault(at, run.Fault.SpoofUAV, 135, 3)); err != nil {
			return res, err
		}
	}
	if err := p.RunMission(end - w.Clock.Now()); err != nil {
		return res, err
	}
	res.Completed = p.MissionComplete()
	res.CompletionS = w.Clock.Now() - start
	res.Ticks = p.Ticks()
	res.Decision = p.Decision().String()
	if res.Availability, err = p.Availability(); err != nil {
		return res, err
	}
	// Record availability at the 12-decimal precision the mission
	// digest hashes, keeping journal and output bytes stable.
	res.Availability = math.Round(res.Availability*1e12) / 1e12

	status := p.Status()
	res.Drops = status.Drops.Total()
	res.WorldDrops = status.WorldDrops.TelemetryPublish
	res.DBRetries = status.DBRetries.Scheduled
	if l.Links != nil {
		for _, s := range l.Links.Stats() {
			res.LinkOffered += s.Offered
			res.LinkDelivered += s.Delivered
			res.LinkDropped += s.Dropped
		}
	}
	res.scanHistory(p.Coordinator.History(""), run, start)
	res.Digest = platform.Digest(p)
	return res, nil
}

// scanHistory extracts detection latencies and contingency counts from
// the EDDI event stream.
func (res *Result) scanHistory(history []eddi.Event, run Run, start float64) {
	batAt := start + run.Fault.BatteryAtS
	spoofAt := start + run.Fault.SpoofAtS
	for _, ev := range history {
		if strings.HasPrefix(ev.Summary, "lost link:") {
			res.LostLinkEvents++
		}
		if strings.HasPrefix(ev.Summary, "compromise:") {
			res.CompromiseEvents++
		}
		if run.Fault.BatteryAtS > 0 && res.SafetyDetectS < 0 &&
			ev.Kind == eddi.KindSafety && ev.UAV == run.Fault.BatteryUAV && ev.Time >= batAt {
			res.SafetyDetectS = ev.Time - batAt
		}
		if run.Fault.SpoofAtS > 0 && res.SecurityDetectS < 0 &&
			ev.Kind == eddi.KindSecurity && ev.UAV == run.Fault.SpoofUAV && ev.Time >= spoofAt {
			res.SecurityDetectS = ev.Time - spoofAt
		}
	}
}

// RerunOne re-executes a single grid point standalone from its (seed,
// params) tuple — the triage path: any journaled run can be reproduced
// bit-identically without the rest of the sweep.
func RerunOne(spec Spec, index int) (Result, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	runs := spec.Expand()
	if index < 0 || index >= len(runs) {
		return Result{}, fmt.Errorf("campaign: run index %d outside [0,%d)", index, len(runs))
	}
	return executeRun(&spec, runs[index])
}
