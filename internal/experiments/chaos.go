package experiments

import (
	"io"
	"strings"

	"sesame/internal/chaos"
	"sesame/internal/platform"
)

// ChaosResult is the chaos-harness demonstration: the same eventful
// mission is flown clean, with an inert (empty) chaos layer, and twice
// under an aggressive fault plan. The inert run must be bit-identical
// to the clean one (the harness is transparent when idle) and the two
// chaos runs must be bit-identical to each other (injections are a
// pure function of the plan seed) — while the fleet rides out every
// injected failure through quarantine and graceful degradation.
type ChaosResult struct {
	Seed    int64
	Horizon float64

	BaselineDigest string
	InertDigest    string
	ChaosDigestA   string
	ChaosDigestB   string
	Transparent    bool // inert == baseline
	Reproducible   bool // chaos A == chaos B

	Injections  chaos.Stats
	Quarantines int
	Recoveries  int
	Decision    string
	Drops       uint64
}

// demoChaosPlan is the aggressive-but-survivable fault cocktail: u1's
// monitor chain panics on every tick for 40 s (driving the circuit
// breaker through quarantine and recovery), a flaky window of chain
// errors hits the whole fleet, telemetry publishes fail sporadically
// and the mission database browns out for the first five minutes.
func demoChaosPlan() chaos.Plan {
	return chaos.Plan{
		Name: "demo",
		Seed: 7,
		Monitors: []chaos.MonitorFault{
			{UAV: "u1", Mode: chaos.ModePanic, Window: chaos.Window{FromS: 60, ToS: 100}, Prob: 1},
			{Mode: chaos.ModeError, Window: chaos.Window{FromS: 150, ToS: 170}, Prob: 0.5},
		},
		Bus: []chaos.PublishFault{
			{Match: "telemetry/", Window: chaos.Window{FromS: 30, ToS: 120}, Prob: 0.05},
		},
		DB: []chaos.Brownout{
			{Window: chaos.Window{ToS: 300}, Prob: 0.2},
		},
	}
}

// RunChaos flies the demonstration described on ChaosResult.
func RunChaos(seed int64) (*ChaosResult, error) {
	const horizon = 600.0
	res := &ChaosResult{Seed: seed, Horizon: horizon}

	fly := func(plan *chaos.Plan) (string, *platform.Platform, *chaos.Layer, error) {
		l, err := buildEventfulMission(seed, plan)
		if err != nil {
			return "", nil, nil, err
		}
		p, layer := l.Platform, l.Chaos
		if err := flyUntil(p, p.World.Clock.Now()+horizon); err != nil {
			p.Close()
			return "", nil, nil, err
		}
		return platform.Digest(p), p, layer, nil
	}

	digest, p, _, err := fly(nil)
	if err != nil {
		return nil, err
	}
	res.BaselineDigest = digest
	p.Close()

	empty := chaos.Plan{}
	if digest, p, _, err = fly(&empty); err != nil {
		return nil, err
	}
	res.InertDigest = digest
	p.Close()

	plan := demoChaosPlan()
	digestA, p, layer, err := fly(&plan)
	if err != nil {
		return nil, err
	}
	res.ChaosDigestA = digestA
	res.Injections = layer.Stats()
	res.Decision = p.Decision().String()
	res.Drops = p.Status().Drops.Total()
	for _, ev := range p.Coordinator.History("") {
		if strings.Contains(ev.Summary, "quarantined") {
			res.Quarantines++
		}
		if strings.Contains(ev.Summary, "recovered after quarantine") {
			res.Recoveries++
		}
	}
	p.Close()

	if digest, p, _, err = fly(&plan); err != nil {
		return nil, err
	}
	res.ChaosDigestB = digest
	p.Close()

	res.Transparent = res.InertDigest == res.BaselineDigest
	res.Reproducible = res.ChaosDigestA == res.ChaosDigestB
	return res, nil
}

// Print writes the chaos-harness report.
func (r *ChaosResult) Print(w io.Writer) {
	printf(w, "== Deterministic chaos harness (-exp chaos) ==\n")
	printf(w, "Mission: seed %d, horizon %.0f s, plan %q\n", r.Seed, r.Horizon, "demo")
	printf(w, "Injections: %d total (%d monitor panics, %d monitor errors, %d bus, %d db)\n",
		r.Injections.Total(), r.Injections.MonitorPanics, r.Injections.MonitorErrors,
		r.Injections.BusFailures, r.Injections.DBFailures)
	printf(w, "Degradation: %d quarantine(s), %d recovery(ies), %d counted drops, decision %s\n",
		r.Quarantines, r.Recoveries, r.Drops, r.Decision)
	printf(w, "Baseline digest: %s   inert-chaos digest: %s\n", r.BaselineDigest[:16], r.InertDigest[:16])
	printf(w, "Chaos digest A:  %s   chaos digest B:     %s\n", r.ChaosDigestA[:16], r.ChaosDigestB[:16])
	if r.Transparent {
		printf(w, "Transparency (inert layer == clean run): PASS\n")
	} else {
		printf(w, "Transparency (inert layer == clean run): FAIL\n")
	}
	if r.Reproducible {
		printf(w, "Reproducibility (chaos A == chaos B): PASS\n")
	} else {
		printf(w, "Reproducibility (chaos A == chaos B): FAIL\n")
	}
}
