// Command sesame-campaign runs a Monte Carlo campaign: a declarative
// sweep spec (seed range × link/fault/fleet parameter grid) expanded
// into independent seeded scenario replicas, executed on a bounded
// worker pool and streamed into per-run CSV/JSONL plus aggregated
// risk-curve artefacts. A killed sweep resumes from its journal and
// produces byte-identical outputs.
//
// Usage:
//
//	sesame-campaign -out sweep/                      # built-in demo grid
//	sesame-campaign -spec spec.json -out sweep/      # your grid
//	sesame-campaign -spec spec.json -out sweep/ -resume   # continue a killed sweep
//	sesame-campaign -workers 8                       # worker pool size (0 = all cores)
//	sesame-campaign -max-runs 100                    # stop early (resume later)
//	sesame-campaign -print-spec                      # dump the effective spec and exit
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"sesame/internal/campaign"
	"sesame/internal/chaos"
	"sesame/internal/linksim"
	"sesame/internal/simclock"
	"sesame/internal/strictjson"
)

// options carries every flag; parseArgs fills it so tests can drive
// run without touching the process-global flag set.
type options struct {
	spec       string
	out        string
	resume     bool
	workers    int
	maxRuns    int
	seed       int64
	printSpec  bool
	every      int
	chaosPath  string
	runRetries int
}

// parseArgs parses argv (without the program name) into options.
func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("sesame-campaign", flag.ContinueOnError)
	fs.StringVar(&o.spec, "spec", "", "campaign spec JSON file (empty = built-in demo grid)")
	fs.StringVar(&o.out, "out", "", "campaign output directory (required unless -print-spec)")
	fs.BoolVar(&o.resume, "resume", false, "resume a killed sweep from -out's journal")
	fs.IntVar(&o.workers, "workers", 0, "worker pool size (0 = one per core)")
	fs.IntVar(&o.maxRuns, "max-runs", 0, "execute at most this many new runs, then stop (0 = no limit)")
	fs.Int64Var(&o.seed, "seed", 1, "first seed of the demo grid (ignored with -spec)")
	fs.BoolVar(&o.printSpec, "print-spec", false, "print the normalized spec as JSON and exit")
	fs.IntVar(&o.every, "progress-every", 100, "print a progress line every N completed runs (0 = quiet)")
	fs.StringVar(&o.chaosPath, "chaos", "", "inject worker failures from this chaos plan JSON (its workers rules; pass the same plan when resuming)")
	fs.IntVar(&o.runRetries, "run-retries", 0, "re-execute a failing run up to N extra times, then quarantine it as status=failed instead of aborting (0 = fail fast)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.out == "" && !o.printSpec {
		return o, errors.New("-out is required (where the campaign writes its journal and results)")
	}
	if o.workers < 0 {
		return o, fmt.Errorf("-workers %d: must be >= 0 (0 = one per core)", o.workers)
	}
	if o.maxRuns < 0 {
		return o, fmt.Errorf("-max-runs %d: must be >= 0 (0 = no limit)", o.maxRuns)
	}
	if o.runRetries < 0 {
		return o, fmt.Errorf("-run-retries %d: must be >= 0 (0 = fail fast)", o.runRetries)
	}
	return o, nil
}

func main() {
	opts, err := parseArgs(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if err := run(opts, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sesame-campaign:", err)
		os.Exit(1)
	}
}

// demoSpec is the built-in grid used when no -spec file is given:
// 4 seeds × 3 link conditions × 3 fault scenarios = 36 runs.
func demoSpec(seed int64) campaign.Spec {
	return campaign.Spec{
		Name:      "demo",
		SeedFrom:  seed,
		SeedCount: 4,
		HorizonS:  900,
		Links: []campaign.LinkVariant{
			{Name: "nominal"},
			{Name: "lossy-10", Profile: linksim.Profile{DropProb: 0.10}},
			{Name: "blackout-60s", OutageStartS: 120, OutageDurS: 60},
		},
		Faults: []campaign.FaultVariant{
			{Name: "none"},
			{Name: "battery-60", BatteryAtS: 60},
			{Name: "spoof-30", SpoofAtS: 30},
		},
	}
}

// loadSpec returns the sweep spec: the demo grid, or the -spec file.
func loadSpec(opts options) (campaign.Spec, error) {
	if opts.spec == "" {
		return demoSpec(opts.seed), nil
	}
	var spec campaign.Spec
	data, err := os.ReadFile(opts.spec)
	if err != nil {
		return spec, err
	}
	if err := strictjson.Decode(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", opts.spec, err)
	}
	return spec, nil
}

// run executes one invocation.
func run(opts options, out io.Writer) error {
	spec, err := loadSpec(opts)
	if err != nil {
		return err
	}
	if opts.printSpec {
		spec.Normalize()
		if err := spec.Validate(); err != nil {
			return err
		}
		data, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", data)
		return nil
	}

	done, failed := 0, 0
	engOpts := campaign.Options{
		OutDir:     opts.out,
		Workers:    opts.workers,
		Resume:     opts.resume,
		MaxRuns:    opts.maxRuns,
		RunRetries: opts.runRetries,
	}
	if opts.chaosPath != "" {
		data, err := os.ReadFile(opts.chaosPath)
		if err != nil {
			return err
		}
		plan, err := chaos.LoadPlan(data)
		if err != nil {
			return err
		}
		// Worker-failure decisions depend only on (plan seed, run index,
		// attempt), so the clock seed is irrelevant; the layer just needs
		// one to exist.
		layer, err := chaos.New(simclock.New(0), plan)
		if err != nil {
			return err
		}
		engOpts.RunFaultHook = layer.WorkerFailure
		fmt.Fprintf(out, "chaos armed from %s (plan seed %d, %d worker rules)\n",
			opts.chaosPath, plan.Seed, len(plan.Workers))
	}
	var total int
	engOpts.OnResult = func(res campaign.Result) {
		done++
		if res.Failed() {
			failed++
		}
		if opts.every > 0 && done%opts.every == 0 {
			fmt.Fprintf(out, "  %d/%d runs\n", done, total)
		}
	}
	eng, err := campaign.New(spec, engOpts)
	if err != nil {
		return err
	}
	total = eng.Total()
	fmt.Fprintf(out, "campaign %q: %d runs (spec %s), %d workers -> %s\n",
		spec.Name, total, spec.Digest()[:12], eng.Workers(), opts.out)

	sum, err := eng.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d/%d runs done in %.1fs (%.0f runs/s): %d executed, %d replayed from journal\n",
		sum.Emitted, sum.Total, sum.Elapsed.Seconds(), sum.RunsPerSec, sum.Executed, sum.Replayed)
	if failed > 0 {
		fmt.Fprintf(out, "%d runs quarantined (status=failed in %s/%s after exhausting %d retries)\n",
			failed, opts.out, campaign.RunsCSVName, opts.runRetries)
	}
	if !sum.Complete {
		fmt.Fprintf(out, "sweep stopped early; continue with: sesame-campaign -spec ... -out %s -resume\n", opts.out)
		return nil
	}
	fmt.Fprintf(out, "results: %s/%s, %s/%s; aggregates: %s/%s, %s/%s, %s/%s\n",
		opts.out, campaign.RunsCSVName, opts.out, campaign.RunsJSONLName,
		opts.out, campaign.CurvesCSVName, opts.out, campaign.ECDFCSVName,
		opts.out, campaign.AggregatesName)
	return nil
}
