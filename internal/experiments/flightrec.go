package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sesame/internal/chaos"
	"sesame/internal/flightrec"
	"sesame/internal/platform"
	"sesame/internal/uavsim"
)

// FlightRecResult is the black-box crash/resume demonstration: one
// eventful mission is flown with the recorder on, "crashes" halfway,
// and is resumed from the newest checkpoint before the crash — the
// resumed fleet must finish bit-identically to the uninterrupted run.
type FlightRecResult struct {
	Seed      int64
	Horizon   float64
	FinalTick uint64 // ticks the uninterrupted mission ran

	// Recording shape.
	TickRecords  int
	EventRecords int
	FaultRecords int
	AdviceReords int
	BusRecords   int
	Snapshots    int
	Segments     int
	BytesOnDisk  int64

	// Crash/resume outcome.
	CrashTick           uint64 // the tick the "crash" cut the mission at
	ResumeTick          uint64 // the checkpoint the resume restarted from
	ReplayedTicks       uint64 // ticks re-driven after the restore
	DigestUninterrupted string
	DigestResumed       string
	Match               bool
}

// RunFlightRec flies the §V fault cocktail (battery collapse + GPS
// spoofing) three times: uninterrupted, recorded, and resumed from the
// recording's mid-flight checkpoint, then compares final-state digests.
func RunFlightRec(seed int64) (*FlightRecResult, error) {
	const horizon = 900.0
	res := &FlightRecResult{Seed: seed, Horizon: horizon}

	// Uninterrupted reference flight.
	l, err := buildEventfulMission(seed, nil)
	if err != nil {
		return nil, err
	}
	p := l.Platform
	end := p.World.Clock.Now() + horizon
	if err := flyUntil(p, end); err != nil {
		return nil, err
	}
	res.FinalTick = p.Ticks()
	res.DigestUninterrupted = platform.Digest(p)
	p.Close()

	// Recorded flight: black box on, checkpoint every 50 ticks.
	dir, err := os.MkdirTemp("", "sesame-flightrec-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if l, err = buildEventfulMission(seed, nil); err != nil {
		return nil, err
	}
	p = l.Platform
	rec, err := flightrec.NewRecorder(dir, seed, p.ConfigDigest(), 50, flightrec.Options{})
	if err != nil {
		return nil, err
	}
	p.SetRecorder(rec)
	if err := flyUntil(p, end); err != nil {
		return nil, err
	}
	if err := rec.Close(); err != nil {
		return nil, err
	}
	if recordedDigest := platform.Digest(p); recordedDigest != res.DigestUninterrupted {
		return nil, fmt.Errorf("recording perturbed the mission: %s != %s",
			recordedDigest, res.DigestUninterrupted)
	}
	p.Close()
	if err := res.surveyRecording(dir); err != nil {
		return nil, err
	}

	// Crash mid-flight, resume from the newest checkpoint before it.
	res.CrashTick = res.FinalTick / 2
	snap, _, err := flightrec.LatestSnapshot(dir, res.CrashTick)
	if err != nil {
		return nil, err
	}
	res.ResumeTick = snap.Tick
	var ps platform.PlatformSnapshot
	if err := json.Unmarshal(snap.State, &ps); err != nil {
		return nil, err
	}
	if l, err = buildEventfulMission(seed, nil); err != nil {
		return nil, err
	}
	p = l.Platform
	defer p.Close()
	if err := p.RestoreCheckpoint(&ps); err != nil {
		return nil, err
	}
	if err := flyUntil(p, end); err != nil {
		return nil, err
	}
	res.ReplayedTicks = p.Ticks() - res.ResumeTick
	res.DigestResumed = platform.Digest(p)
	res.Match = res.DigestResumed == res.DigestUninterrupted
	return res, nil
}

// buildEventfulMission rebuilds the eventful demo mission: three UAVs
// sweeping a 350 m square with eight scattered persons, a GPS spoofing
// attack at t=+30 and a battery collapse at t=+60, plus an optional
// chaos plan armed on top. Every run — reference, recorded, resumed,
// chaos — starts from this exact construction.
func buildEventfulMission(seed int64, plan *chaos.Plan) (*platform.Launch, error) {
	l, err := platform.Recipe{Seed: seed, UAVs: 3, Persons: 8, AreaSideM: 350, Chaos: plan}.Build(platform.DefaultConfig())
	if err != nil {
		return nil, err
	}
	now := l.World.Clock.Now()
	for _, f := range []uavsim.Fault{
		uavsim.GPSSpoofFault(now+30, "u2", 135, 3),
		uavsim.BatteryCollapseFault(now+60, "u1", 70, 40),
	} {
		if err := l.World.ScheduleFault(f); err != nil {
			l.Platform.Close()
			return nil, err
		}
	}
	return l, nil
}

// flyUntil drives the platform to the fixed absolute end time.
func flyUntil(p *platform.Platform, end float64) error {
	for p.World.Clock.Now() < end {
		if err := p.Tick(); err != nil {
			return err
		}
		if p.MissionComplete() {
			return nil
		}
	}
	return nil
}

// surveyRecording fills the recording-shape fields from the black box.
func (r *FlightRecResult) surveyRecording(dir string) error {
	rd, err := flightrec.OpenReader(dir)
	if err != nil {
		return err
	}
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		switch rec.Type {
		case flightrec.TypeTick:
			r.TickRecords++
		case flightrec.TypeEvent:
			r.EventRecords++
		case flightrec.TypeFault:
			r.FaultRecords++
		case flightrec.TypeAdvice:
			r.AdviceReords++
		case flightrec.TypeBus:
			r.BusRecords++
		case flightrec.TypeSnapshot:
			r.Snapshots++
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return err
		}
		r.BytesOnDisk += info.Size()
		if filepath.Ext(e.Name()) == ".rec" {
			r.Segments++
		}
	}
	return nil
}

// Print writes the crash/resume report.
func (r *FlightRecResult) Print(w io.Writer) {
	printf(w, "== Black-box flight recorder crash/resume (-exp flightrec) ==\n")
	printf(w, "Mission: seed %d, horizon %.0f s, %d ticks flown\n", r.Seed, r.Horizon, r.FinalTick)
	printf(w, "Recording: %d ticks, %d events, %d advice, %d faults, %d bus summaries, %d checkpoints\n",
		r.TickRecords, r.EventRecords, r.AdviceReords, r.FaultRecords, r.BusRecords, r.Snapshots)
	printf(w, "           %d segment(s), %.1f KiB on disk (%.1f B/tick)\n",
		r.Segments, float64(r.BytesOnDisk)/1024, float64(r.BytesOnDisk)/float64(max(r.TickRecords, 1)))
	printf(w, "Crash at tick %d -> resumed from checkpoint tick %d, re-drove %d ticks\n",
		r.CrashTick, r.ResumeTick, r.ReplayedTicks)
	printf(w, "Uninterrupted digest: %s\n", r.DigestUninterrupted[:16])
	printf(w, "Resumed digest:       %s\n", r.DigestResumed[:16])
	if r.Match {
		printf(w, "Result: bit-identical resume — PASS\n")
	} else {
		printf(w, "Result: DIVERGED — FAIL\n")
	}
}
