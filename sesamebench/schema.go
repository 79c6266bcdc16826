package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

// schemaVersion tags every record this benchmark writes. Records of
// another schema (including the legacy BENCH_PR*.json files at the
// repository root) are not comparable and compare mode rejects them.
const schemaVersion = "sesamebench/v1"

// Metric is one measured value. Better is "higher" or "lower". Samples
// is the number of observations a timing was computed from, and Stat
// names the statistic (such as "p95") when the value is a percentile.
type Metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Better  string  `json:"better"`
	Samples int     `json:"samples,omitempty"`
	Stat    string  `json:"stat,omitempty"`
}

// Record is one (workload, run) result. Untraced and traced runs use
// the same schema; Traced says which one it is.
type Record struct {
	Schema     string   `json:"schema"`
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Traced     bool     `json:"traced"`
	Commit     string   `json:"commit"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Correct    bool     `json:"correct"`
	Attempted  int64    `json:"attempted"`
	Failed     int64    `json:"failed"`
	Metrics    []Metric `json:"metrics"`
}

func newRecord(workload string, seed int64, seconds int, traced bool) *Record {
	commit := os.Getenv("SESAMEBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return &Record{
		Schema: schemaVersion, Workload: workload, Seed: seed, Seconds: seconds,
		Traced: traced, Commit: commit, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
}

// add appends a metric. NaN and infinite values are a bug in the
// workload's accounting, never a measurement, so they panic.
func (r *Record) add(name, unit, better string, v float64) *Metric {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("metric %s: non-finite value %v", name, v))
	}
	r.Metrics = append(r.Metrics, Metric{Name: name, Unit: unit, Value: v, Better: better})
	return &r.Metrics[len(r.Metrics)-1]
}

// timing adds a latency metric computed as a percentile of d, stating
// the sample count and the statistic.
func (r *Record) timing(name string, d *dist, q float64) {
	m := r.add(name, "ms", "lower", d.p(q))
	m.Samples, m.Stat = d.n(), fmt.Sprintf("p%g", q)
}

// tail adds the tail-latency metric of d: the highest percentile up to
// maxQ with at least minBeyond samples beyond it.
func (r *Record) tail(name string, d *dist, maxQ float64) {
	q, v := d.tail(maxQ)
	m := r.add(name, "ms", "lower", v)
	m.Samples, m.Stat = d.n(), fmt.Sprintf("p%g", q)
}

// metric looks a metric up by name, resolving the summary line's
// generic names to the workload's own.
func (r *Record) metric(name string) (Metric, bool) {
	name = recordName(r.Workload, name)
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// errorRate is failed over attempted operations.
func (r *Record) errorRate() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// resultLine is the one-line summary that ends the benchmark's
// standard output: only the metrics named in BENCHMARK.json for the
// run's mode, each with its value and unit.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResult prints the record as one JSON line, then, unless names
// is empty, the summary line restricted to names. A name the record
// lacks is an error: the benchmark never prints a partial summary.
func writeResult(w io.Writer, rec *Record, names []string) error {
	line := resultLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: map[string]resultValue{}}
	for _, n := range names {
		m, ok := rec.metric(n)
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", rec.Workload, n)
		}
		line.Metrics[n] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	full, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if len(names) == 0 {
		_, err = fmt.Fprintf(w, "%s\n", full)
		return err
	}
	summary, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", full, summary)
	return err
}

// printTable writes the record's metrics for a human reader.
func printTable(w io.Writer, rec *Record) {
	ms := append([]Metric(nil), rec.Metrics...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	fmt.Fprintf(w, "# %s seed=%d traced=%v correct=%v attempted=%d failed=%d error_rate=%.3g\n",
		rec.Workload, rec.Seed, rec.Traced, rec.Correct, rec.Attempted, rec.Failed, rec.errorRate())
	for _, m := range ms {
		extra := ""
		switch {
		case m.Stat != "" && m.Samples > 0:
			extra = fmt.Sprintf("  (%s of %d)", m.Stat, m.Samples)
		case m.Stat != "":
			extra = fmt.Sprintf("  (%s)", m.Stat)
		case m.Samples > 0:
			extra = fmt.Sprintf("  (%d samples)", m.Samples)
		}
		fmt.Fprintf(w, "#   %-40s %14.6g %-12s %s-is-better%s\n", m.Name, m.Value, m.Unit, m.Better, extra)
	}
}
