package experiments

import (
	"io"

	"sesame/internal/platform"
	"sesame/internal/scenario"
)

// ScenarioFlight is one generated archetype flown to its horizon —
// twice. The declarative scenario layer promises that (seed,
// archetype) fully determines the world, the fleet, the link weather
// and the fault timeline, so the two flights must land on the same
// mission digest bit for bit.
type ScenarioFlight struct {
	Archetype    string
	Name         string
	Fleet        int
	Sites        int
	Persons      int
	HorizonS     float64
	ChaosArmed   bool
	Decision     string
	Availability float64
	DigestA      string
	DigestB      string
	Reproducible bool
}

// ScenariosResult is the scenario-generator demonstration: every
// archetype family is generated at the experiment seed and flown
// twice, checking the determinism gate the conformance suite enforces
// over hundreds of random seeds.
type ScenariosResult struct {
	Seed    int64
	Flights []ScenarioFlight
	AllHold bool
}

// RunScenarios generates and flies every scenario archetype at seed.
func RunScenarios(seed int64) (*ScenariosResult, error) {
	res := &ScenariosResult{Seed: seed, AllHold: true}
	for _, arch := range scenario.Archetypes() {
		sc, err := scenario.Generate(seed, arch)
		if err != nil {
			return nil, err
		}
		fl := ScenarioFlight{
			Archetype: arch,
			Name:      sc.Name,
			Fleet:     len(sc.Fleet),
			Sites:     len(sc.Sites),
			Persons:   sc.Persons,
			HorizonS:  sc.HorizonS,
		}
		for pass := 0; pass < 2; pass++ {
			sr, err := platform.LaunchScenario(sc, platform.DefaultConfig())
			if err != nil {
				return nil, err
			}
			p := sr.Platform
			if err := flyUntil(p, p.World.Clock.Now()+sc.HorizonS); err != nil {
				p.Close()
				return nil, err
			}
			digest := platform.Digest(p)
			if pass == 0 {
				fl.DigestA = digest
				fl.ChaosArmed = sr.Chaos != nil
				fl.Decision = p.Decision().String()
				if a, err := p.Availability(); err == nil {
					fl.Availability = a
				}
			} else {
				fl.DigestB = digest
			}
			p.Close()
		}
		fl.Reproducible = fl.DigestA == fl.DigestB
		if !fl.Reproducible {
			res.AllHold = false
		}
		res.Flights = append(res.Flights, fl)
	}
	return res, nil
}

// Print writes the scenario-layer report.
func (r *ScenariosResult) Print(w io.Writer) {
	printf(w, "== Declarative scenarios (-exp scenarios) ==\n")
	printf(w, "Seed %d, one generated world per archetype, each flown twice:\n", r.Seed)
	for _, fl := range r.Flights {
		chaos := "off"
		if fl.ChaosArmed {
			chaos = "armed"
		}
		printf(w, "%-13s %-24s %d UAVs, %d site(s), %d person(s), horizon %4.0f s, chaos %s\n",
			fl.Archetype, fl.Name, fl.Fleet, fl.Sites, fl.Persons, fl.HorizonS, chaos)
		verdict := "PASS"
		if !fl.Reproducible {
			verdict = "FAIL (" + fl.DigestB[:16] + ")"
		}
		printf(w, "              decision %s, availability %.4f, digest %s, rerun %s\n",
			fl.Decision, fl.Availability, fl.DigestA[:16], verdict)
	}
	if r.AllHold {
		printf(w, "Determinism gate (digest A == digest B per archetype): PASS\n")
	} else {
		printf(w, "Determinism gate (digest A == digest B per archetype): FAIL\n")
	}
}
