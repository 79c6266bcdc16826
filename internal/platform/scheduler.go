package platform

// The fleet scheduler runs one pipeline per tick (tick):
//
//  1. step: world physics. Vehicles step per cell on the worker pool;
//     telemetry then publishes serially in fleet order.
//  2. prepare (serial): the lost-link watchdog over the whole fleet,
//     because a contingency mutates shared mission state (availability
//     marks, task redistribution, the event log).
//  3. observe (worker pool): freeze each UAV's telemetry Snapshot,
//     stage its camera frame and run its monitor chain. Chains only
//     touch their own UAV's state and read-only shared models (the
//     SINADRA network, the config), so any interleaving yields the
//     same per-UAV results. Failure tallies go to shard-local cell
//     counters, merged at the barrier in ascending cell order.
//  4. apply (serial, fleet order): emit the collected events, run
//     mission management (crash redistribution, collaborative-landing
//     steps, battery swaps), execute flight actions and update the
//     mission decision. Everything that reads fleet-wide state
//     (ConSert neighbour evidence) or mutates shared state happens
//     here, in stable p.order.
//
// The one layout-dependent choice is where prepareUAV runs. Unsharded
// (one cell), captures draw from one shared detector stream, so every
// snapshot is prepared serially in fleet order during phase 2 and
// phase 3 fans out per UAV. Sharded (Config.Cells > 1), captures draw
// from per-vehicle split streams, so preparation is fused into a
// per-cell pass. Both layouts are bit-identical across pool sizes, and
// sharded runs across cell counts (with a detection scene the two
// layouts draw captures differently, so they do not match each other).

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"sesame/internal/conserts"
	"sesame/internal/detection"
	"sesame/internal/eddi"
	"sesame/internal/safedrones"
	"sesame/internal/uavsim"
)

// observation is one UAV's observe-phase output.
type observation struct {
	result eddi.ChainResult
	// failed marks a contained monitor-chain failure (panic or error);
	// the apply phase converts it into a fail-safe Hold and feeds the
	// per-UAV circuit breaker.
	failed bool
	// panicked distinguishes a panic from a plain error (attribution in
	// the incident event and the panic metric).
	panicked bool
	failMsg  string
	// quarantined marks a chain that was skipped because its breaker is
	// open (no failure this tick — the chain never ran).
	quarantined bool
}

// Tick advances the platform by one second through the pipeline
// above. With a flight recorder configured, the completed tick is
// appended to the black box and a full checkpoint is written on
// cadence.
func (p *Platform) Tick() error {
	if err := p.tick(); err != nil {
		return err
	}
	p.ticks++
	if p.recorder != nil {
		return p.recordTick()
	}
	return nil
}

// tick is one pass of the step → prepare → observe → apply pipeline.
func (p *Platform) tick() error {
	phases := p.startPhases()
	now, err := p.World.BeginStep(1)
	if err != nil {
		return err
	}
	p.parallelFor(len(p.cells), func(k int) { p.World.StepRange(p.cells[k].lo, p.cells[k].hi, 1) })
	p.World.FinishStep(now)
	phases.lap(phaseStep)

	// The watchdog runs before any snapshot so snapshots reflect the
	// contingencies commanded this tick. A contingency only touches
	// other vehicles through redispatch, which never changes a field
	// prepareUAV reads, and the watchdog draws no RNG.
	for _, id := range p.order {
		p.tickLinkWatchdog(p.states[id], now)
	}
	snaps, out := p.snapshotBuf(), p.observationBuf()
	fused := len(p.cells) > 1
	if !fused {
		for i, id := range p.order {
			snaps[i] = p.prepareUAV(p.states[id], now)
		}
	}
	phases.lap(phasePrepare)
	if fused {
		p.parallelFor(len(p.cells), func(k int) {
			for i := p.cells[k].lo; i < p.cells[k].hi; i++ {
				snaps[i] = p.prepareUAV(p.states[p.order[i]], now)
				out[i] = p.observeUAV(snaps[i])
			}
		})
	} else {
		p.parallelFor(len(snaps), func(i int) { out[i] = p.observeUAV(snaps[i]) })
	}
	p.mergeCellCounters()
	phases.lap(phaseObserve)

	for i, id := range p.order {
		if err := p.apply(id, out[i], now); err != nil {
			return err
		}
	}
	p.updateDecision()
	phases.lap(phaseApply)
	return nil
}

// parallelFor runs fn(0) … fn(n-1) on the worker pool, each worker
// stealing the next index from a shared counter, and waits for all of
// them. With one worker or one item it runs inline.
func (p *Platform) parallelFor(n int, fn func(i int)) {
	workers := min(p.workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// mergeCellCounters drains every cell's shard-local drop/retry tallies
// into the platform totals in ascending cell order — the deterministic
// merge Status and checkpoints read.
func (p *Platform) mergeCellCounters() {
	for i := range p.cells {
		p.cells[i].drops.drainInto(&p.drops)
		p.cells[i].retries.drainInto(&p.retries)
	}
}

// RunMission ticks until every UAV has finished (landed/holding with
// empty path) or horizon seconds elapse.
func (p *Platform) RunMission(horizon float64) error {
	end := p.World.Clock.Now() + horizon
	for p.World.Clock.Now() < end {
		if err := p.Tick(); err != nil {
			return err
		}
		if p.missionComplete() {
			return nil
		}
	}
	return nil
}

// prepareUAV freezes one UAV's telemetry snapshot and stages its
// perception frame. The sharded tick calls it concurrently across
// cells: every field read is the vehicle's own state, captures draw
// from the vehicle's split detector stream (st.detRNG), and failures
// count into the cell's shard-local counters.
func (p *Platform) prepareUAV(st *uavState, now float64) eddi.Snapshot {
	u := st.uav
	s := eddi.Snapshot{
		UAV:             u.ID(),
		Time:            now,
		Airborne:        u.Mode().Airborne(),
		InMissionFlight: u.Mode() == uavsim.ModeMission,
		AltitudeM:       u.AltitudeM(),
		ChargePct:       u.Battery.ChargePct,
		BatteryTempC:    u.Battery.TempC,
		Overheating:     u.Battery.Overheating(),
		FailedRotors:    u.FailedRotors(),
		CommsOK:         u.Comms.OK,
		Visibility:      p.cfg.Visibility,
		Derived:         &eddi.Derived{},
	}
	if p.cfg.SESAME && p.scene != nil && st.collocCtrl == nil && u.Mode() == uavsim.ModeMission {
		cond := detection.Conditions{
			AltitudeM:  u.AltitudeM(),
			Visibility: p.cfg.Visibility,
			CameraBlur: u.Camera.BlurSigma,
			Thermal:    p.thermal,
		}
		var frame *detection.Frame
		var err error
		if st.detRNG != nil {
			frame, err = p.detector.CaptureWith(st.detRNG, u.ID(), now, u.TruePosition(), cond, p.scene)
		} else {
			frame, err = p.detector.Capture(u.ID(), now, u.TruePosition(), cond, p.scene)
		}
		if countIn(&st.drops.perception, err) {
			st.perceptionMon.stage(frame)
		}
	}
	return s
}

// snapshotBuf returns the reusable fleet-sized snapshot scratch.
func (p *Platform) snapshotBuf() []eddi.Snapshot {
	if cap(p.snapBuf) < len(p.order) {
		p.snapBuf = make([]eddi.Snapshot, len(p.order))
	}
	return p.snapBuf[:len(p.order)]
}

// observationBuf returns the reusable fleet-sized observation scratch.
func (p *Platform) observationBuf() []observation {
	if cap(p.obsBuf) < len(p.order) {
		p.obsBuf = make([]observation, len(p.order))
	}
	return p.obsBuf[:len(p.order)]
}

// observeUAV runs one UAV's telemetry reporting and monitor chain.
// Safe to call concurrently for different UAVs. A failing monitor —
// panic or error — is contained here: it becomes a counted drop plus a
// fail-safe observation instead of killing the worker goroutine (and
// with it the process) or aborting the tick. While the UAV's breaker
// is open the chain is skipped entirely (telemetry keeps flowing), so
// a persistently crashing monitor costs one skipped call per tick
// instead of one contained panic per tick.
func (p *Platform) observeUAV(s eddi.Snapshot) (ob observation) {
	st := p.states[s.UAV]
	defer func() {
		// Backstop for panics outside the chain itself (the chain's own
		// panics are converted to *eddi.MonitorPanicError upstream).
		if r := recover(); r != nil {
			st.drops.monitors.Add(1)
			if st.recorder != nil {
				st.recorder.recordPanic()
			}
			ob = observation{failed: true, panicked: true, failMsg: fmt.Sprint(r)}
		}
	}()
	p.reportTelemetry(st, s.Time)
	if st.quarantined && s.Time < st.probeAt {
		return observation{quarantined: true}
	}
	// The typed-nil guard matters: a nil *chainRecorder in a non-nil
	// interface would turn the observer path on for uninstrumented runs.
	var result eddi.ChainResult
	var err error
	if st.recorder != nil {
		result, err = eddi.RunChainObserved(st.chain, s, st.recorder)
	} else {
		result, err = eddi.RunChain(st.chain, s)
	}
	if err != nil {
		st.drops.monitors.Add(1)
		ob = observation{failed: true, failMsg: err.Error()}
		var pe *eddi.MonitorPanicError
		if errors.As(err, &pe) {
			ob.panicked = true
			ob.failMsg = pe.Monitor + ": " + fmt.Sprint(pe.Value)
			if st.recorder != nil {
				st.recorder.recordPanic()
			}
		}
		return ob
	}
	return observation{result: result}
}

// reportTelemetry is the §IV-A database path: every tick each UAV
// stores its location and battery record. Transient failures
// (ErrUnavailable) enter a bounded retry-with-backoff queue drained
// here on later ticks; permanent rejections are counted as drops.
// Retries drain first so a recovered old datum cannot overwrite this
// tick's fresher write.
func (p *Platform) reportTelemetry(st *uavState, now float64) {
	p.drainDBRetries(st, now)
	u := st.uav
	id := u.ID()
	if err := p.DB.PutLocation(p.cfg.Origin, id, u.TruePosition(), now); err != nil {
		p.deferOrDrop(st, now, err, dbRetry{
			Kind: dbRetryLocation, Pos: u.TruePosition(), Time: now,
		})
	}
	rec := Record{
		Key:   "battery",
		Value: formatCharge(u.Battery.ChargePct),
		Time:  now,
	}
	if err := p.DB.PutRecord(p.cfg.Origin, id, rec); err != nil {
		p.deferOrDrop(st, now, err, dbRetry{Kind: dbRetryRecord, Rec: rec})
	}
}

// formatCharge renders a battery charge record value with one decimal,
// exactly as fmt's "%.1f" does, without fmt's per-call overhead.
func formatCharge(pct float64) string { return strconv.FormatFloat(pct, 'f', 1, 64) }

// deferOrDrop queues a transiently failed database write for retry, or
// counts it as a drop when the failure is permanent (validation,
// forbidden origin).
func (p *Platform) deferOrDrop(st *uavState, now float64, err error, r dbRetry) {
	if errors.Is(err, ErrUnavailable) {
		r.Attempts = 1
		r.NextAt = now + dbRetryBackoffS
		st.dbRetries = append(st.dbRetries, r)
		st.retries.scheduled.Add(1)
		return
	}
	st.drops.database.Add(1)
}

// drainDBRetries re-offers due queued writes. Each failure doubles the
// backoff until the attempt budget is spent, at which point the write
// is abandoned and finally counted as a database drop. The queue is
// per-UAV state owned by the observing worker, so this is race-free
// and deterministic.
func (p *Platform) drainDBRetries(st *uavState, now float64) {
	if len(st.dbRetries) == 0 {
		return
	}
	kept := st.dbRetries[:0]
	for _, r := range st.dbRetries {
		if now < r.NextAt {
			kept = append(kept, r)
			continue
		}
		err := p.execRetry(st, r)
		if err == nil {
			st.retries.succeeded.Add(1)
			continue
		}
		r.Attempts++
		if !errors.Is(err, ErrUnavailable) || r.Attempts >= dbRetryAttempts {
			st.retries.abandoned.Add(1)
			st.drops.database.Add(1)
			continue
		}
		r.NextAt = now + dbRetryBackoffS*float64(uint64(1)<<uint(r.Attempts-1))
		kept = append(kept, r)
	}
	st.dbRetries = kept
}

// apply executes one UAV's collected findings in fleet order: event
// emission, mission management and flight actions.
func (p *Platform) apply(id string, ob observation, now float64) error {
	st := p.states[id]
	u := st.uav

	// A contained monitor-chain failure fails the UAV safe: emit the
	// incident once, hold position, skip the (unavailable) chain
	// findings — and feed the circuit breaker. After breakerFailures
	// consecutive failures the chain is quarantined: skipped entirely
	// until a re-probe after breakerCooldownS, instead of re-failing
	// every tick.
	if ob.failed {
		st.breakerFails++
		if !st.monitorPanicked {
			st.monitorPanicked = true
			word := "error"
			if ob.panicked {
				word = "panic"
			}
			ev := eddi.Event{
				Kind: eddi.KindSafety, UAV: id, Time: now, Severity: 1,
				Summary: "monitor chain " + word + ": " + ob.failMsg + "; holding position fail-safe",
			}
			countIn(&p.drops.events, p.Coordinator.Emit(ev))
			p.recordEvent(ev)
		}
		if st.quarantined {
			// Failed re-probe: re-arm the cooldown without a new event —
			// one quarantine incident per continuous quarantine period.
			st.probeAt = now + breakerCooldownS
		} else if st.breakerFails >= breakerFailures {
			st.quarantined = true
			st.probeAt = now + breakerCooldownS
			if p.obs != nil {
				p.obs.quarantines().Inc()
			}
			ev := eddi.Event{
				Kind: eddi.KindSafety, UAV: id, Time: now, Severity: 1,
				Summary: fmt.Sprintf("monitor chain quarantined after %d consecutive failures; re-probe in %.0fs",
					st.breakerFails, breakerCooldownS),
			}
			countIn(&p.drops.events, p.Coordinator.Emit(ev))
			p.recordEvent(ev)
			p.recordFault(now, id, "monitor-quarantine", ob.failMsg)
		}
		if u.Mode() == uavsim.ModeMission {
			u.Hold()
		}
		return nil
	}

	// Breaker open: the chain was skipped this tick; keep holding until
	// the next probe.
	if ob.quarantined {
		if u.Mode() == uavsim.ModeMission {
			u.Hold()
		}
		return nil
	}

	// A clean chain run closes an open breaker (successful probe) and
	// resets the consecutive-failure streak.
	if st.quarantined {
		st.quarantined = false
		st.breakerFails = 0
		st.monitorPanicked = false
		st.probeAt = 0
		ev := eddi.Event{
			Kind: eddi.KindSafety, UAV: id, Time: now, Severity: 0.3,
			Summary: "monitor chain recovered after quarantine; resuming normal monitoring",
		}
		countIn(&p.drops.events, p.Coordinator.Emit(ev))
		p.recordEvent(ev)
	} else if st.breakerFails != 0 {
		st.breakerFails = 0
		st.monitorPanicked = false
	}

	// Collaborative landing halted the chain: step the controller and
	// skip normal mission control.
	if ob.result.HasAdvice(eddi.AdviceCollabLand) {
		st.collocCtrl.Step()
		if u.Mode() == uavsim.ModeLanded {
			// Back on the ground, recoverable.
			countIn(&p.drops.availability, p.avail.MarkUp(id, now))
		}
		return nil
	}

	// A crash (rotor loss on a quad, battery depletion) takes the
	// vehicle out of the mission instantly; the Task Manager
	// redistributes its unfinished work.
	if u.Mode() == uavsim.ModeCrashed && st.inMission {
		st.inMission = false
		st.swapPending = false
		countIn(&p.drops.availability, p.avail.MarkDown(id, now))
		if p.mission != nil {
			if _, assigned := p.mission.Assignments[id]; assigned && len(p.mission.Assignments) > 1 {
				countIn(&p.drops.mission, p.mission.Redistribute(id, u.RemainingPath()))
				p.redispatch()
			}
		}
	}

	// Emit the chain's findings in deterministic fleet order.
	for _, ev := range ob.result.Events {
		countIn(&p.drops.events, p.Coordinator.Emit(ev))
		p.recordEvent(ev)
	}

	if !p.cfg.SESAME {
		p.applyBaseline(st, ob.result.Advices, now)
		return nil
	}

	// SINADRA adaptation: descend (optionally re-scanning) and restart
	// the perception window at the new altitude.
	for _, advice := range ob.result.Advices {
		switch advice.Kind {
		case eddi.AdviceRescan:
			st.rescans++
			p.descend(st)
		case eddi.AdviceDescend:
			p.descend(st)
		}
	}

	// ConSert evidence mapping and evaluation over the fleet state as
	// left by the UAVs earlier in p.order — the same view the serial
	// loop had.
	action, err := p.fuse(st, u, id)
	if err != nil {
		return err
	}
	// Monitor overrides (the SafeDrones emergency threshold) bypass the
	// boolean evidence network.
	for _, advice := range ob.result.Advices {
		if advice.Override && advice.Kind == eddi.AdviceEmergencyLand {
			action = conserts.ActionEmergencyLand
		}
	}
	p.applyAction(st, action, now)
	return nil
}

// descend executes SINADRA's altitude adaptation and resets the
// perception window for the new operating point.
func (p *Platform) descend(st *uavState) {
	countIn(&p.drops.commands, st.uav.SetAltitude(descendAltitudeM))
	st.descended = true
	st.perception.Reset()
	st.hasUncert = false
}

// evidenceSlots are the evidence-vector slots of the Fig. 1 runtime
// evidence, resolved once when the platform is built.
type evidenceSlots struct {
	gpsQualityOK, noSpoofing, cameraHealthy, perceptionConfident,
	nearbyDroneDetection, commsOK, neighborsAvailable,
	reliabilityHigh, reliabilityMedium int
}

// initFusion compiles the Fig. 1 composition and resolves the evidence
// slots fuse fills.
func (p *Platform) initFusion() error {
	comp, err := conserts.BuildUAVComposition()
	if err != nil {
		return err
	}
	s := &p.evSlots
	for _, r := range []struct {
		name string
		slot *int
	}{
		{conserts.EvGPSQualityOK, &s.gpsQualityOK},
		{conserts.EvNoSpoofing, &s.noSpoofing},
		{conserts.EvCameraHealthy, &s.cameraHealthy},
		{conserts.EvPerceptionConfident, &s.perceptionConfident},
		{conserts.EvNearbyDroneDetection, &s.nearbyDroneDetection},
		{conserts.EvCommsOK, &s.commsOK},
		{conserts.EvNeighborsAvailable, &s.neighborsAvailable},
		{conserts.EvReliabilityHigh, &s.reliabilityHigh},
		{conserts.EvReliabilityMedium, &s.reliabilityMedium},
	} {
		if *r.slot = comp.EvidenceSlot(r.name); *r.slot < 0 {
			return fmt.Errorf("platform: ConSert composition reads no %q evidence", r.name)
		}
	}
	p.eval = conserts.NewEvaluator(comp)
	p.evidence = comp.NewEvidenceVector()
	return nil
}

// fuse maps the UAV's state onto ConSert evidence and evaluates the
// Fig. 1 composition.
func (p *Platform) fuse(st *uavState, u *uavsim.UAV, id string) (conserts.UAVAction, error) {
	// p.evidence and p.eval are shared scratch, reused every tick; fuse
	// only runs in the serial apply phase (see the phase comment above).
	ev, s := p.evidence, &p.evSlots
	ev[s.gpsQualityOK] = u.GPS.Mode == uavsim.GPSModeNominal || u.GPS.Mode == uavsim.GPSModeSpoofed
	ev[s.noSpoofing] = !p.Security.CompromisedBy(id, st.mapManipKey)
	ev[s.cameraHealthy] = u.Camera.OK
	ev[s.perceptionConfident] = !st.hasUncert || st.uncertainty < 0.9
	ev[s.nearbyDroneDetection] = u.Camera.OK
	commsOK := u.Comms.OK && !p.Security.CompromisedBy(id, st.c2HijackKey)
	// GCS-observed staleness demotes the comms guarantee: evidence must
	// reflect what the ground station can actually see, not vehicle
	// ground truth, once a lossy link sits between them.
	if st.lostLink || st.telemetryAge(p.World.Clock.Now()) > lostLinkWindowS {
		commsOK = false
	}
	ev[s.commsOK] = commsOK
	ev[s.neighborsAvailable] = p.airborneNeighbors(id) > 0
	ev[s.reliabilityHigh] = st.lastAssessment.Level == safedrones.LevelHigh
	ev[s.reliabilityMedium] = st.lastAssessment.Level == safedrones.LevelMedium
	return p.eval.Action(ev)
}
