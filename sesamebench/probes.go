package main

// Per-layer measurement: reductions of the benchmark's own spans and
// of the program's obsv registry, plus probes that drive one module's
// public API on the workload's own world, seed and sizes, outside the
// end-to-end window.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"sesame/internal/conserts"
	"sesame/internal/flightrec"
	"sesame/internal/missionhost"
	"sesame/internal/obsv"
	"sesame/internal/platform"
	"sesame/internal/uavsim"
)

// layerTotals accumulates traced flights' per-layer totals.
type layerTotals struct {
	ticks, uavTicks float64
	sharded         bool
	workers         int

	tickMedianMS   float64
	tickTotal      time.Duration
	mallocs, bytes uint64
	// flightTotal and flightSelf are the flight spans' duration and
	// the part of it outside Tick calls: the harness's own time.
	flightTotal, flightSelf time.Duration

	phase   map[string]float64 // scheduler phase -> summed seconds
	monitor map[string]float64 // monitor -> summed Observe seconds
	counter map[string]float64 // registry counter (labels summed)

	// stepSerialNsPerUAV is the world-step probe's serial part of a
	// step (clock events, gusts, telemetry publish) per UAV.
	stepSerialNsPerUAV float64
}

func (lt *layerTotals) fromSpans(spans map[string]*spanStats) {
	if st := spans["platform.Tick"]; st != nil {
		lt.tickMedianMS = median(st.durs.xs)
		lt.tickTotal = st.total
	}
	if st := spans["platform.flight"]; st != nil {
		lt.mallocs, lt.bytes = st.mallocs, st.bytes
		lt.flightTotal, lt.flightSelf = st.total, st.self
	}
}

func (lt *layerTotals) fromRegistry(s obsv.Snapshot) {
	lt.phase, lt.monitor, lt.counter = map[string]float64{}, map[string]float64{}, map[string]float64{}
	for _, h := range s.Histograms {
		switch h.Name {
		case "sesame_platform_phase_seconds":
			lt.phase[h.Value] += h.Sum
		case "sesame_monitor_observe_seconds":
			lt.monitor[h.Value] += h.Sum
		}
	}
	for _, c := range s.Counters {
		lt.counter[c.Name] += float64(c.Count)
	}
}

// emit adds the platform, monitor and bus-layer metrics.
func (lt *layerTotals) emit(rec *Record) {
	uavTicks := lt.uavTicks
	rec.add("platform.tick_ms", "ms", "lower", lt.tickMedianMS).Samples = int(lt.ticks)
	rec.add("platform.allocs_per_uav_tick", "count", "lower", float64(lt.mallocs)/uavTicks)
	rec.add("platform.bytes_per_uav_tick", "B", "lower", float64(lt.bytes)/uavTicks)
	for _, ph := range []string{"step", "prepare", "observe", "apply"} {
		rec.add("platform."+ph+"_ns_per_uav", "ns", "lower", lt.phase[ph]/uavTicks*1e9)
	}
	rec.add("platform.serial_frac", "ratio", "lower", lt.serialFrac())
	for _, m := range []string{"safeml", "safedrones", "sinadra", "colloc"} {
		rec.add(m+".observe_ns", "ns", "lower", lt.monitor[m]/uavTicks*1e9)
	}
	rec.add("rosbus.delivered_per_uav_tick", "count", "lower", lt.counter["sesame_rosbus_delivered_total"]/uavTicks)
	rec.add("ids.rule_evals_per_uav_tick", "count", "lower", lt.counter["sesame_ids_rule_evaluations_total"]/uavTicks)
	rec.add("mqttlite.matched_per_tick", "count", "lower", lt.counter["sesame_mqtt_matched_total"]/lt.ticks)
	rec.add("bench.harness_self_frac", "ratio", "lower", lt.flightSelf.Seconds()/lt.flightTotal.Seconds())
}

// serialFrac is the share of tick wall time outside work the worker
// pool runs in parallel. On the sharded scheduler the pool runs the
// physics part of the step phase and the fused prepare+observe phase;
// on the legacy pipeline only observe, and only with more than one
// worker. The serial part of the step phase (clock events, gusts and
// the telemetry publish) comes from the world-step probe.
func (lt *layerTotals) serialFrac() float64 {
	total := lt.tickTotal.Seconds()
	if total <= 0 {
		return 1
	}
	var parallel float64
	if lt.sharded {
		serialStep := lt.stepSerialNsPerUAV * lt.uavTicks / 1e9
		if step := lt.phase["step"]; step > serialStep {
			parallel += step - serialStep
		}
	}
	if lt.workers > 1 {
		parallel += lt.phase["observe"]
	}
	f := 1 - parallel/total
	if f < 0 {
		f = 0
	}
	return f
}

// buildFunc constructs one started mission, with reg attached when
// non-nil.
type buildFunc func(reg *obsv.Registry) (*missionBuild, error)

// probeMaxTicks caps a probe flight of a small-fleet world; the
// per-UAV-tick averages settle well before it.
const probeMaxTicks = 400

// flyProbe flies b for maxTicks ticks, or, with untilComplete, until
// its mission completes first. With a tracer the flight is a counted
// span (allocation counters are read once per flight: reading them
// stops the world, which would swamp a 3-UAV tick) and every Tick a
// timed child span.
func flyProbe(b *missionBuild, maxTicks int, untilComplete bool, tr *tracer) (int, time.Duration, error) {
	flight := tr.begin("platform.flight", true)
	start := time.Now()
	n := 0
	for n < maxTicks && !(untilComplete && b.p.MissionComplete()) {
		f := tr.begin("platform.Tick", false)
		if err := b.p.Tick(); err != nil {
			return n, time.Since(start), err
		}
		tr.end(f, false)
		n++
	}
	wall := time.Since(start)
	tr.end(flight, true)
	return n, wall, nil
}

// attachRecorder puts a flight recorder at sesame-mission's default
// cadence on b.
func attachRecorder(b *missionBuild, dir string, seed int64) error {
	r, err := flightrec.NewRecorder(dir, seed, b.p.ConfigDigest(), fleetSnapshotEvery, flightrec.Options{})
	if err != nil {
		return err
	}
	b.p.SetRecorder(r)
	b.rec = r
	return nil
}

// traceFlights is the traced measurement shared by every workload.
// Each build is flown twice with the recorder on, first untraced and
// then with the obsv registry attached, the flight a counted span and
// every Tick a timed one;
// the wall-time difference is the tracing overhead. untracedWall, when
// non-zero, is an untraced flight the caller already made of the same
// ticks, and the untraced flights are skipped. The common per-layer
// metrics and the probes follow, on the builds' own worlds.
func traceFlights(env *runEnv, rec *Record, builds []buildFunc, maxTicks int, untilComplete bool, untracedWall time.Duration, sharded bool, workers int) error {
	if untracedWall == 0 {
		for i, build := range builds {
			b, err := build(nil)
			if err != nil {
				return err
			}
			err = attachRecorder(b, env.dir(fmt.Sprintf("plain-box-%d", i)), env.seed)
			if err == nil {
				var wall time.Duration
				_, wall, err = flyProbe(b, maxTicks, untilComplete, nil)
				untracedWall += wall
			}
			b.close()
			if err != nil {
				return err
			}
		}
	}

	reg := obsv.NewRegistry()
	tr := newTracer()
	lt := layerTotals{sharded: sharded, workers: workers}
	var tracedWall time.Duration
	var last *missionBuild // the flight the probes below inspect
	var lastDir string
	var lastTicks int
	defer func() {
		if last != nil {
			last.close()
		}
	}()
	for i, build := range builds {
		if last != nil {
			last.close()
			last = nil
		}
		b, err := build(reg)
		if err != nil {
			return err
		}
		last, lastDir = b, env.dir(fmt.Sprintf("traced-box-%d", i))
		if err := attachRecorder(b, lastDir, env.seed); err != nil {
			return err
		}
		n, wall, err := flyProbe(b, maxTicks, untilComplete, tr)
		rec.Attempted += int64(n)
		if err != nil {
			rec.Failed++
			return err
		}
		tracedWall += wall
		lt.ticks += float64(n)
		lt.uavTicks += float64(n * b.world.FleetSize())
		lastTicks = n
	}
	rec.add("bench.trace_overhead_frac", "ratio", "lower", tracedWall.Seconds()/untracedWall.Seconds()-1)
	lt.fromSpans(reduce(tr.spans))
	lt.fromRegistry(reg.Snapshot())

	var err error
	if lt.stepSerialNsPerUAV, err = probeWorldStep(rec, builds[0]); err != nil {
		return err
	}
	lt.emit(rec)
	if err := probeCheckpoint(rec, last.p); err != nil {
		return err
	}
	if err := last.rec.Sync(); err != nil {
		return err
	}
	if err := probeRecording(rec, lastDir, lastTicks); err != nil {
		return err
	}
	if err := probeStatusDigest(rec, last.p); err != nil {
		return err
	}
	if err := probeConSerts(rec); err != nil {
		return err
	}
	return probeDatabase(rec, last.world)
}

// timeCalls calls fn until it has run at least minN times and for at
// least minDur, returning each call's duration in ms.
func timeCalls(minN int, minDur time.Duration, fn func() error) (dist, error) {
	var d dist
	start := time.Now()
	for d.n() < minN || time.Since(start) < minDur {
		t := time.Now()
		if err := fn(); err != nil {
			return d, err
		}
		d.add(float64(time.Since(t)) / float64(time.Millisecond))
	}
	return d, nil
}

// allocsDuring runs fn and returns the heap allocations it made.
func allocsDuring(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// probeCheckpoint times Checkpoint plus its JSON encoding — what the
// recorder's cadence checkpoint and the mission host's park both pay.
func probeCheckpoint(rec *Record, p *platform.Platform) error {
	var size int
	d, err := timeCalls(3, 200*time.Millisecond, func() error {
		ck, err := p.Checkpoint()
		if err != nil {
			return err
		}
		data, err := json.Marshal(ck)
		size = len(data)
		return err
	})
	if err != nil {
		return err
	}
	rec.timing("flightrec.checkpoint_ms", &d, 50)
	rec.add("flightrec.checkpoint_mb", "MB", "lower", float64(size)/1e6)
	return nil
}

// probeRecording sums the payload bytes of every non-checkpoint record
// in a recording: the recorder's per-tick append volume.
func probeRecording(rec *Record, dir string, ticks int) error {
	r, err := flightrec.OpenReader(dir)
	if err != nil {
		return err
	}
	var n int
	for {
		x, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if x.Type != flightrec.TypeSnapshot {
			n += len(x.Payload)
		}
	}
	rec.add("flightrec.append_bytes_per_tick", "B", "lower", float64(n)/float64(ticks))
	return nil
}

// probeStatusDigest times Status and the mission digest on a flown
// platform.
func probeStatusDigest(rec *Record, p *platform.Platform) error {
	st, err := timeCalls(20, 100*time.Millisecond, func() error { p.Status(); return nil })
	if err != nil {
		return err
	}
	dg, err := timeCalls(5, 100*time.Millisecond, func() error { missionhost.MissionDigest(p); return nil })
	if err != nil {
		return err
	}
	rec.add("platform.status_us", "us", "lower", st.p(50)*1e3).Samples = st.n()
	rec.timing("platform.digest_ms", &dg, 50)
	return nil
}

// probeWorldStep drives World.BeginStep / StepRange / FinishStep on a
// world wired to a platform by NewPlatform and StartMission, after a
// few ordinary ticks, timing physics and the telemetry publish (bus
// dispatch, link layer, IDS inspection) separately. A second, untimed
// pass counts the publish's allocations. It returns the serial
// (non-physics) part of a step in ns per UAV.
func probeWorldStep(rec *Record, build buildFunc) (float64, error) {
	const warm, steps = 5, 20
	b, err := build(nil)
	if err != nil {
		return 0, err
	}
	defer b.close()
	for i := 0; i < warm; i++ {
		if err := b.p.Tick(); err != nil {
			return 0, err
		}
	}
	w := b.world
	n := w.FleetSize()
	var begin, phys, pub time.Duration
	var pubAllocs uint64
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < steps; i++ {
			t := time.Now()
			now, err := w.BeginStep(1)
			if err != nil {
				return 0, err
			}
			t1 := time.Now()
			w.StepRange(0, n, 1)
			t2 := time.Now()
			if pass == 1 {
				pubAllocs += allocsDuring(func() { w.FinishStep(now) })
				continue
			}
			w.FinishStep(now)
			t3 := time.Now()
			begin += t1.Sub(t)
			phys += t2.Sub(t1)
			pub += t3.Sub(t2)
		}
	}
	uavSteps := float64(steps * n)
	rec.add("uavsim.physics_ns_per_uav", "ns", "lower", float64(phys)/uavSteps)
	rec.add("uavsim.publish_ns_per_uav", "ns", "lower", float64(pub)/uavSteps)
	rec.add("uavsim.publish_allocs_per_uav", "count", "lower", float64(pubAllocs)/uavSteps)
	return float64(begin+pub) / uavSteps, nil
}

// probeConSerts evaluates the UAV ConSert composition over every
// combination of its runtime-evidence keys.
func probeConSerts(rec *Record) error {
	comp, err := conserts.BuildUAVComposition()
	if err != nil {
		return err
	}
	keys := []string{
		conserts.EvGPSQualityOK, conserts.EvNoSpoofing, conserts.EvCameraHealthy,
		conserts.EvPerceptionConfident, conserts.EvNearbyDroneDetection, conserts.EvCommsOK,
		conserts.EvNeighborsAvailable, conserts.EvReliabilityHigh, conserts.EvReliabilityMedium,
	}
	combos := make([]conserts.Evidence, 1<<len(keys))
	for m := range combos {
		ev := conserts.Evidence{}
		for i, k := range keys {
			ev[k] = m&(1<<i) != 0
		}
		combos[m] = ev
	}
	e := conserts.NewEvaluator(comp)
	evalAll := func() error {
		for _, ev := range combos {
			if _, err := e.UAVAction(ev); err != nil {
				return err
			}
		}
		return nil
	}
	if err := evalAll(); err != nil { // warm the evaluator's storage
		return err
	}
	const rounds = 40
	t := time.Now()
	for r := 0; r < rounds; r++ {
		if err := evalAll(); err != nil {
			return err
		}
	}
	el := time.Since(t)
	var evalErr error
	allocs := allocsDuring(func() {
		for r := 0; r < rounds && evalErr == nil; r++ {
			evalErr = evalAll()
		}
	})
	if evalErr != nil {
		return evalErr
	}
	evals := float64(rounds * len(combos))
	rec.add("conserts.uav_action_ns", "ns", "lower", float64(el)/evals)
	rec.add("conserts.allocs_per_eval", "count", "lower", float64(allocs)/evals)
	return nil
}

// probeDatabase writes each of the world's UAVs' location and battery
// record, as the platform's telemetry path does every tick, for at
// least dbProbeWrites writes: once timed, once with the allocation
// counters read around the whole pass.
func probeDatabase(rec *Record, w *uavsim.World) error {
	const dbProbeWrites = 40000
	uavs := w.UAVs()
	db := platform.NewDatabase(100000)
	origin := platform.DefaultConfig().Origin
	rounds := dbProbeWrites / (2 * len(uavs))
	if rounds < 1 {
		rounds = 1
	}
	pass := func() error {
		for r := 0; r < rounds; r++ {
			now := float64(r)
			for _, u := range uavs {
				if err := db.PutLocation(origin, u.ID(), u.TruePosition(), now); err != nil {
					return err
				}
				if err := db.PutRecord(origin, u.ID(), platform.Record{Key: "battery", Value: "87.5", Time: now}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	t := time.Now()
	if err := pass(); err != nil {
		return err
	}
	el := time.Since(t)
	var passErr error
	allocs := allocsDuring(func() { passErr = pass() })
	if passErr != nil {
		return passErr
	}
	writes := float64(2 * rounds * len(uavs))
	rec.add("platform.db_write_ns", "ns", "lower", float64(el)/writes)
	rec.add("platform.db_allocs_per_write", "count", "lower", float64(allocs)/writes)
	return nil
}
