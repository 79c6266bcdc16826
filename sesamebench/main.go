// Command sesamebench is the SESAME stack's benchmark: three seeded
// workloads measured end to end (untraced) or layer by layer (traced),
// each checked against a path the determinism contract says must
// agree, with results in one stable record schema and a compare mode
// that judges a change against its parent. See README.md.
//
// Usage, from the repository root:
//
//	bash sesamebench/run.sh --workload fleet_1k --seed 1 --seconds 10 --trace 0
//	bash sesamebench/run.sh --workload host_mixed --seed 1 --seconds 10 --trace 1 --out results.jsonl
//	bash sesamebench/run.sh compare -base parent.jsonl -head change.jsonl -claim fleet_1k:rtf
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloads maps each workload name to its run function.
var workloads = map[string]func(*runEnv, *Record) error{
	"fleet_1k":    runFleet,
	"campaign_mc": runCampaign,
	"host_mixed":  runHost,
}

// aliases maps the summary line's generic operation-latency name to
// each workload's own metric: the workloads' unit operations differ (a
// fleet tick, a campaign row, a status read), but every workload
// reports the median of its own.
var aliases = map[string]map[string]string{
	"fleet_1k":    {"op_p50_ms": "tick_p50_ms"},
	"campaign_mc": {"op_p50_ms": "row_p50_ms"},
	"host_mixed":  {"op_p50_ms": "read_p50_ms"},
}

// recordName resolves a BENCHMARK.json metric name to the workload's
// record metric.
func recordName(workload, name string) string {
	if n, ok := aliases[workload][name]; ok {
		return n
	}
	return name
}

// summaryName is recordName's inverse.
func summaryName(workload, name string) string {
	for generic, own := range aliases[workload] {
		if own == name {
			return generic
		}
	}
	return name
}

// runEnv is one invocation's settings.
type runEnv struct {
	seed   int64
	window time.Duration
	traced bool
	nproc  int
	work   string // scratch directory, removed at exit
}

func (e *runEnv) dir(name string) string { return filepath.Join(e.work, name) }

func (e *runEnv) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

// workloadOrder is the order `--workload all` runs them in.
var workloadOrder = []string{"fleet_1k", "campaign_mc", "host_mixed"}

func runMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("sesamebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "fleet_1k, campaign_mc, host_mixed, or all (one after another, without the summary line)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (traced run plus probes)")
	outPath := fs.String("out", "", "also append each run's record to this JSON-lines file")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition naming the summary metrics")
	workRoot := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	_, ok := workloads[names[0]]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "sesamebench: need --workload (fleet_1k|campaign_mc|host_mixed|all), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	bf, err := loadBenchFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sesamebench:", err)
		return 1
	}
	listed := bf.EndToEnd
	if *trace == 1 {
		listed = bf.PerLayer
	}
	var summary []string
	for _, m := range listed {
		summary = append(summary, m.Name)
	}

	status := 0
	for _, name := range names {
		env := &runEnv{
			seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1,
			nproc: runtime.NumCPU(),
			work:  filepath.Join(*workRoot, fmt.Sprintf("%s-%d", name, os.Getpid())),
		}
		rec, err := runWorkload(name, env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sesamebench: %s: %v\n", name, err)
			return 1
		}
		printTable(out, rec)
		if *outPath != "" {
			if err := appendRecord(*outPath, rec); err != nil {
				fmt.Fprintln(os.Stderr, "sesamebench:", err)
				return 1
			}
		}
		if len(names) == 1 {
			err = writeResult(out, rec, summary)
		} else {
			err = writeResult(out, rec, nil)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sesamebench:", err)
			return 1
		}
		if !rec.Correct {
			fmt.Fprintf(os.Stderr, "sesamebench: %s: correctness gate failed\n", name)
			status = 1
		}
	}
	return status
}

// runWorkload runs one workload in its own scratch directory, removed
// afterwards, and returns its record with error_rate added.
func runWorkload(name string, env *runEnv) (*Record, error) {
	if err := os.MkdirAll(env.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(env.work)
	rec := newRecord(name, env.seed, int(env.window/time.Second), env.traced)
	if err := workloads[name](env, rec); err != nil {
		return nil, err
	}
	rec.add("error_rate", "ratio", "lower", rec.errorRate())
	return rec, nil
}

// appendRecord appends rec as one JSON line to path.
func appendRecord(path string, rec *Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
