package main

import (
	"fmt"
	"runtime"
	"time"

	"sesame/internal/detection"
	"sesame/internal/flightrec"
	"sesame/internal/geo"
	"sesame/internal/missionhost"
	"sesame/internal/obsv"
	"sesame/internal/platform"
	"sesame/internal/uavsim"
)

const (
	fleetUAVs = 1000
	// fleetSnapshotEvery is sesame-mission's default -snapshot-every.
	fleetSnapshotEvery = 50
	// fleetMaxTicks ends a segment of the window before the classic
	// 1000-UAV mission completes (tick 705 at every seed tried), so
	// every tick timed is a tick of a flying fleet.
	fleetMaxTicks = 690
	// fleetHeapTick is the tick after which live_heap_mb is read, with
	// the window's clock paused: mission state grows as the mission
	// flies, so reading it at the window's end would make a faster
	// program look hungrier.
	fleetHeapTick = 100
	// setupRepeats is how many times each workload builds its system
	// before the window; setup_s is their median.
	setupRepeats = 3
)

// classicHome and classicArea are the classic SAR mission's anchor
// and 400 m survey square, as sesame-mission and the mission host fly
// them.
var classicHome = geo.LatLng{Lat: 35.1856, Lng: 33.3823}

func classicArea() geo.Polygon {
	a := geo.Destination(classicHome, 45, 80)
	b := geo.Destination(a, 90, 400)
	c := geo.Destination(b, 0, 400)
	d := geo.Destination(a, 0, 400)
	return geo.Polygon{a, b, c, d}
}

// missionBuild is one constructed mission, started and ready to tick.
type missionBuild struct {
	world *uavsim.World
	p     *platform.Platform
	rec   *flightrec.Recorder
}

func (b *missionBuild) close() {
	b.p.Close()
	if b.rec != nil {
		_ = b.rec.Close()
	}
}

// buildClassic constructs the classic SAR mission with n UAVs exactly
// as sesame-mission's buildMission does, with the given scheduler
// regime, optional registry and optional recording directory.
func buildClassic(seed int64, n, cells, workers int, reg *obsv.Registry, recDir string) (*missionBuild, error) {
	w := uavsim.NewWorld(classicHome, seed)
	for i := 1; i <= n; i++ {
		if _, err := w.AddUAV(uavsim.UAVConfig{ID: fmt.Sprintf("u%d", i), Home: classicHome, CruiseSpeedMS: 12}); err != nil {
			return nil, err
		}
	}
	area := classicArea()
	scene, err := detection.NewRandomScene(area, 10, 0.2, w.Clock.Stream("scene"))
	if err != nil {
		return nil, err
	}
	cfg := platform.DefaultConfig()
	cfg.Cells = cells
	cfg.Workers = workers
	cfg.Observability = reg
	p, err := platform.New(w, scene, cfg)
	if err != nil {
		return nil, err
	}
	if err := p.StartMission(area); err != nil {
		p.Close()
		return nil, err
	}
	b := &missionBuild{world: w, p: p}
	if recDir != "" {
		rec, err := flightrec.NewRecorder(recDir, seed, p.ConfigDigest(), fleetSnapshotEvery, flightrec.Options{})
		if err != nil {
			p.Close()
			return nil, err
		}
		p.SetRecorder(rec)
		b.rec = rec
	}
	return b, nil
}

// fleetWindow is what one timed window of the fleet measured.
type fleetWindow struct {
	ticks  int           // ticks flown in the window, all segments
	wall   time.Duration // the window's wall time, pauses excluded
	tickMS dist
	// The first segment's ticks and wall time: the stretch the traced
	// run flies again.
	firstTicks int
	firstWall  time.Duration
	// lastTicks is the final segment's length and digest its mission
	// digest there: the point the correctness gate checks.
	lastTicks int
	digest    string
	heapMB    float64
	heapTick  int
}

// flyWindow ticks the mission build makes for the window, timing
// every Tick. When a mission reaches maxTicks, still short of
// completion, it is closed and built again, and the window flies it
// again from tick 0: a fast program then measures as many ticks as a
// slow one measures seconds. The live heap is read after fleetHeapTick
// of the first segment (or at the end of a window too short to reach
// it). Rebuilds and heap readings stop the window's clock.
func flyWindow(build func() (*missionBuild, error), window time.Duration, maxTicks int) (fleetWindow, error) {
	var fw fleetWindow
	b, err := build()
	if err != nil {
		return fw, err
	}
	defer func() { b.close() }()
	var paused time.Duration
	seg := 0
	start := time.Now()
	for time.Since(start)-paused < window {
		if seg == maxTicks {
			t := time.Now()
			if fw.firstTicks == 0 {
				fw.firstTicks, fw.firstWall = seg, t.Sub(start)-paused
			}
			b.close()
			if b, err = build(); err != nil {
				return fw, err
			}
			seg = 0
			paused += time.Since(t)
		}
		t := time.Now()
		if err := b.p.Tick(); err != nil {
			return fw, fmt.Errorf("tick %d: %w", seg+1, err)
		}
		fw.tickMS.add(float64(time.Since(t)) / float64(time.Millisecond))
		fw.ticks++
		seg++
		if fw.ticks == fleetHeapTick {
			t := time.Now()
			fw.heapMB, fw.heapTick = liveHeapMB(), fw.ticks
			paused += time.Since(t)
		}
	}
	fw.wall = time.Since(start) - paused
	if fw.firstTicks == 0 {
		fw.firstTicks, fw.firstWall = seg, fw.wall
	}
	if fw.heapTick == 0 {
		fw.heapMB, fw.heapTick = liveHeapMB(), fw.ticks
	}
	fw.lastTicks = seg
	fw.digest = missionhost.MissionDigest(b.p)
	return fw, nil
}

// referenceDigest flies the same seed on the serial scheduler
// (Workers=1) for ticks ticks and returns its mission digest: the
// determinism contract says any worker count must agree with it.
func referenceDigest(seed int64, n, cells, ticks int) (string, error) {
	b, err := buildClassic(seed, n, cells, 1, nil, "")
	if err != nil {
		return "", err
	}
	defer b.close()
	for i := 0; i < ticks; i++ {
		if err := b.p.Tick(); err != nil {
			return "", fmt.Errorf("reference tick %d: %w", i+1, err)
		}
	}
	return missionhost.MissionDigest(b.p), nil
}

// liveHeapMB is HeapAlloc after forced collections, in MB. Two
// cycles, because objects parked in a sync.Pool (such as the JSON
// encoder's buffers after a checkpoint) survive the first one.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// runFleet is the fleet_1k workload: one classic 1000-UAV SAR mission
// on the sharded scheduler with the flight recorder on.
func runFleet(env *runEnv, rec *Record) error {
	cells := platform.AutoCells(fleetUAVs)
	workers := env.nproc

	// Set-up: construction of world, fleet, scene, platform, mission
	// and recorder, repeated.
	builds := 0
	build := func() (*missionBuild, error) {
		builds++
		return buildClassic(env.seed, fleetUAVs, cells, workers, nil, env.dir(fmt.Sprintf("box-%d", builds)))
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		b, err := build()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		b.close()
	}
	rec.add("setup_s", "s", "lower", median(setups)).Samples = len(setups)

	fw, err := flyWindow(build, env.window, fleetMaxTicks)
	rec.Attempted += int64(fw.ticks)
	if err != nil {
		rec.Failed++
		return err
	}
	rec.add("rtf", "sim-s/wall-s", "higher", float64(fw.ticks)/fw.wall.Seconds()).Samples = fw.ticks
	rec.timing("tick_p50_ms", &fw.tickMS, 50)
	rec.tail("tick_p95_ms", &fw.tickMS, 95)
	rec.add("live_heap_mb", "MB", "lower", fw.heapMB).Stat = fmt.Sprintf("after tick %d", fw.heapTick)

	if env.traced {
		if err := traceFleet(env, rec, fw, cells, workers); err != nil {
			return err
		}
	}

	// Correctness gate, outside the window.
	want, err := referenceDigest(env.seed, fleetUAVs, cells, fw.lastTicks)
	if err != nil {
		return err
	}
	rec.Correct = want == fw.digest
	if !rec.Correct {
		env.logf("fleet_1k: digest at tick %d is %s, the Workers=1 flight gives %s", fw.lastTicks, fw.digest, want)
	}
	return nil
}

// traceFleet is the traced half of fleet_1k: the window's first
// segment flown again from a fresh build with the registry attached
// and every Tick a timed span, then the probes.
func traceFleet(env *runEnv, rec *Record, untraced fleetWindow, cells, workers int) error {
	build := func(reg *obsv.Registry) (*missionBuild, error) {
		return buildClassic(env.seed, fleetUAVs, cells, workers, reg, "")
	}
	return traceFlights(env, rec, []buildFunc{build}, untraced.firstTicks, false, untraced.firstWall, cells > 1, workers)
}
