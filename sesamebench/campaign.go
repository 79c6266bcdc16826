package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"sesame/internal/campaign"
	"sesame/internal/obsv"
	"sesame/internal/platform"
	"sesame/internal/scenario"
)

const (
	// campaignSeedsPerSweep sizes one Engine.Run: 3 archetypes × 24
	// seeds = 72 runs, so a 10 s window holds a couple of dozen
	// complete sweeps, each writing its journal and every output file.
	campaignSeedsPerSweep = 24
	// campaignGateSample is how many emitted rows the correctness gate
	// re-executes standalone.
	campaignGateSample = 6
	// campaignTraceSample is the larger sample a traced run re-executes,
	// to time campaign.run_ms over more worlds.
	campaignTraceSample = 30
	// campaignFleet is the small fleet every generated world flies.
	campaignFleet = 3
	// campaignSetupRepeats warm-up sweeps make setup_s; each is short,
	// so more of them than the other workloads' set-ups.
	campaignSetupRepeats = 7
)

// campaignSpec is a sweep of the three generated archetypes over
// seeds worlds from seedFrom on.
func campaignSpec(seedFrom int64, seeds int) campaign.Spec {
	return campaign.Spec{
		Name:      "campaign_mc",
		SeedFrom:  seedFrom,
		SeedCount: seeds,
		Fleets:    []int{campaignFleet},
		Scenarios: scenario.Archetypes(),
	}
}

// campaignSeedBase spaces the workload seeds' world ranges apart, so
// two workload seeds never sweep the same worlds.
const campaignSeedBase = 100000

// sweepResult is one Engine.Run's outcome as the benchmark saw it.
// Rows are folded as they arrive rather than kept, so the live heap
// at the window's end does not grow with the number of runs done.
type sweepResult struct {
	spec     campaign.Spec
	summary  *campaign.Summary
	rows     int
	failed   int
	ticks    float64
	offered  float64
	dropped  float64
	gateRow  campaign.Result // one row, chosen by the workload's rng
	gatePick int
}

// runSweep executes one sweep into dir with Workers = workers,
// timing each run from the moment a worker starts it to the moment
// its row is emitted (rows are emitted in run order, so a fast run
// can wait for a slower earlier one; that wait is part of what a
// reader of the streamed outputs sees). The row at index gatePick is
// kept for the correctness gate.
func runSweep(spec campaign.Spec, dir string, workers, gatePick int, rowMS *dist) (sweepResult, error) {
	total := spec.SeedCount * len(spec.Scenarios)
	started := make([]time.Time, total)
	sr := sweepResult{spec: spec, gatePick: gatePick}
	eng, err := campaign.New(spec, campaign.Options{
		OutDir:  dir,
		Workers: workers,
		// The hook runs on the worker goroutine just before the run
		// executes; the row reaches OnResult through the engine's
		// results channel, which orders the two accesses.
		RunFaultHook: func(index, _ int) error {
			started[index] = time.Now()
			return nil
		},
		OnResult: func(r campaign.Result) {
			if rowMS != nil {
				rowMS.add(float64(time.Since(started[r.Index])) / float64(time.Millisecond))
			}
			sr.rows++
			if r.Failed() {
				sr.failed++
			}
			sr.ticks += float64(r.Ticks)
			sr.offered += float64(r.LinkOffered)
			sr.dropped += float64(r.LinkDropped)
			if r.Index == gatePick {
				sr.gateRow = r
			}
		},
	})
	if err != nil {
		return sr, err
	}
	sr.summary, err = eng.Run(context.Background())
	return sr, err
}

// runCampaign is the campaign_mc workload: back-to-back complete
// sweeps of generated scenario worlds on a bounded worker pool, with
// journal and outputs on disk.
func runCampaign(env *runEnv, rec *Record) error {
	workers := env.nproc
	rng := rand.New(rand.NewSource(env.seed))

	// Set-up: a warm-up sweep of two worlds per archetype (scenario
	// generation, platform construction, output files), repeated.
	var setups []float64
	for i := 0; i < campaignSetupRepeats; i++ {
		t := time.Now()
		warm := campaignSpec(env.seed*campaignSeedBase+campaignSeedBase-2*int64(i+1), 2)
		sr, err := runSweep(warm, env.dir(fmt.Sprintf("warm-%d", i)), workers, -1, nil)
		if err != nil {
			return err
		}
		if !sr.summary.Complete {
			return fmt.Errorf("warm-up sweep incomplete")
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	rec.add("setup_s", "s", "lower", median(setups)).Samples = len(setups)

	// The window: complete sweeps back to back. Throughput is the
	// median over sweeps, so one slow sweep (a burst of load from
	// outside) moves it less than a window total would.
	var (
		rowMS              dist
		sweeps             []sweepResult
		runRates, simRates []float64
		executed           int
	)
	start := time.Now()
	for time.Since(start) < env.window {
		spec := campaignSpec(env.seed*campaignSeedBase+1+int64(len(sweeps)*campaignSeedsPerSweep), campaignSeedsPerSweep)
		total := spec.SeedCount * len(spec.Scenarios)
		sr, err := runSweep(spec, env.dir(fmt.Sprintf("sweep-%d", len(sweeps))), workers, rng.Intn(total), &rowMS)
		rec.Attempted += int64(total)
		if err != nil {
			rec.Failed++
			return err
		}
		rec.Failed += int64(sr.failed)
		if !sr.summary.Complete || sr.rows != total {
			rec.Failed++
		}
		el := sr.summary.Elapsed.Seconds()
		runRates = append(runRates, float64(sr.summary.Executed)/el)
		simRates = append(simRates, sr.ticks/el)
		executed += sr.summary.Executed
		sweeps = append(sweeps, sr)
	}
	wall := time.Since(start)
	rec.add("rtf", "sim-s/wall-s", "higher", median(simRates)).Samples = len(simRates)
	rec.add("runs_per_s", "1/s", "higher", median(runRates)).Samples = len(runRates)
	rec.timing("row_p50_ms", &rowMS, 50)
	rec.tail("row_p95_ms", &rowMS, 95)

	// Correctness gate: a seeded sample of the emitted rows, each
	// re-executed standalone, must reproduce every field.
	var runMS dist
	var uavTicks float64
	rec.Correct = true
	sample := campaignGateSample
	if env.traced {
		sample = campaignTraceSample
	}
	for i := 0; i < sample; i++ {
		sr := sweeps[rng.Intn(len(sweeps))]
		row := sr.gateRow
		t := time.Now()
		again, err := campaign.RerunOne(sr.spec, sr.gatePick)
		if err != nil {
			return err
		}
		runMS.add(float64(time.Since(t)) / float64(time.Millisecond))
		uavTicks += float64(again.Ticks) * float64(again.Fleet)
		if !reflect.DeepEqual(again, row) {
			rec.Correct = false
			env.logf("campaign_mc: row %s differs from its standalone re-run", again.Key)
		}
	}

	// The live heap is read last, once the benchmark's own per-sweep
	// and per-row bookkeeping is no longer referenced, so that what it
	// reads does not grow with the number of runs the window held.
	tc := campaignTrace{firstSpec: sweeps[0].spec, runMS: runMS, uavTicks: uavTicks,
		executed: executed, wall: wall, workers: workers}
	for _, sr := range sweeps {
		tc.offered += sr.offered
		tc.dropped += sr.dropped
		tc.rows += sr.rows
	}
	rec.add("live_heap_mb", "MB", "lower", liveHeapMB()).Stat = "after the window"
	if env.traced {
		return traceCampaign(env, rec, &tc)
	}
	return nil
}

// campaignTrace is what the traced half of campaign_mc needs from the
// window.
type campaignTrace struct {
	firstSpec        campaign.Spec
	runMS            dist
	uavTicks         float64
	executed         int
	wall             time.Duration
	workers          int
	offered, dropped float64
	rows             int
}

// traceCampaign adds the campaign_mc per-layer metrics: the engine's
// own cost from the sampled re-runs, the link layer from the rows,
// and the platform layers from probe flights of this run's worlds.
func traceCampaign(env *runEnv, rec *Record, tc *campaignTrace) error {
	var sumMS float64
	for _, x := range tc.runMS.xs {
		sumMS += x
	}
	rec.timing("campaign.run_ms", &tc.runMS, 50)
	rec.add("campaign.ns_per_uav_tick", "ns", "lower", sumMS*1e6/tc.uavTicks)
	busy := sumMS / float64(tc.runMS.n()) * float64(tc.executed) / 1e3
	rec.add("campaign.engine_overhead_frac", "ratio", "lower", 1-busy/(float64(tc.workers)*tc.wall.Seconds()))
	share := 0.0
	if tc.offered > 0 {
		share = tc.dropped / tc.offered
	}
	rec.add("linksim.drop_share", "ratio", "lower", share)
	rec.add("linksim.offered_per_run", "count", "lower", tc.offered/float64(tc.rows))

	// Probe flights: the first world of each archetype in this run's
	// first sweep, flown as the campaign flies it (Workers=1).
	spec := tc.firstSpec
	var builds []buildFunc
	for _, arch := range spec.Scenarios {
		arch := arch
		builds = append(builds, func(reg *obsv.Registry) (*missionBuild, error) {
			return buildScenario(spec.SeedFrom, arch, campaignFleet, reg)
		})
	}
	if err := probeLaunch(rec, spec.SeedFrom, spec.Scenarios, campaignFleet); err != nil {
		return err
	}
	return traceFlights(env, rec, builds, probeMaxTicks, true, 0, false, 1)
}

// buildScenario launches a generated archetype world on the serial
// scheduler, as the campaign engine (fleet > 0: GenerateN) and the
// mission host (fleet 0: the archetype's own fleet) do.
func buildScenario(seed int64, arch string, fleet int, reg *obsv.Registry) (*missionBuild, error) {
	var sc *scenario.Scenario
	var err error
	if fleet > 0 {
		sc, err = scenario.GenerateN(seed, arch, fleet)
	} else {
		sc, err = scenario.Generate(seed, arch)
	}
	if err != nil {
		return nil, err
	}
	cfg := platform.DefaultConfig()
	cfg.Workers = 1
	cfg.Observability = reg
	run, err := platform.LaunchScenario(sc, cfg)
	if err != nil {
		return nil, err
	}
	return &missionBuild{world: run.World, p: run.Platform}, nil
}

// probeLaunch times scenario generation plus launch for each archetype.
func probeLaunch(rec *Record, seed int64, archs []string, fleet int) error {
	i := 0
	d, err := timeCalls(3*len(archs), 200*time.Millisecond, func() error {
		b, err := buildScenario(seed, archs[i%len(archs)], fleet, nil)
		i++
		if err != nil {
			return err
		}
		b.close()
		return nil
	})
	if err != nil {
		return err
	}
	rec.timing("scenario.launch_ms", &d, 50)
	return nil
}
