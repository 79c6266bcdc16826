package platform

import (
	"testing"

	"sesame/internal/conserts"
)

// TestFuseAndDecideAllocationFree gates the serial ConSert apply path:
// fusing every UAV of a warmed 48-UAV fleet into the indexed evidence
// vector and recomputing the mission decision allocate nothing.
func TestFuseAndDecideAllocationFree(t *testing.T) {
	p := buildFleet(t, DefaultConfig(), 3, 48, 0)
	if err := p.StartMission(missionArea(400)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := p.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	var fuseErr error
	allocs := testing.AllocsPerRun(20, func() {
		for _, id := range p.order {
			st := p.states[id]
			if _, err := p.fuse(st, st.uav, id); err != nil {
				fuseErr = err
			}
		}
		p.updateDecision()
	})
	if fuseErr != nil {
		t.Fatal(fuseErr)
	}
	if allocs != 0 {
		t.Errorf("fuse over 48 UAVs + updateDecision allocates %.1f per pass, want 0", allocs)
	}
	if p.Decision() != conserts.MissionAsPlanned {
		t.Errorf("decision = %v, want %v on a healthy fleet", p.Decision(), conserts.MissionAsPlanned)
	}
}
