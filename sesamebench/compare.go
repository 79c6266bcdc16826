package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchFile is the part of BENCHMARK.json the benchmark reads: the
// metrics the summary line carries, with the regression bounds compare
// mode applies.
type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readRecords reads a JSON-lines file of records, skipping lines that
// are not records of this benchmark's schema (the summary lines and
// table comments of a captured stdout).
func readRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.Schema != schemaVersion {
			continue
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series is one metric's values across a result set's runs of one
// workload, with the seeds they came from.
type series struct {
	better string
	unit   string
	seeds  []int64
	values []float64
}

// collect groups untraced records by workload and metric.
func collect(recs []Record) map[string]map[string]*series {
	out := map[string]map[string]*series{}
	for _, r := range recs {
		if r.Traced {
			continue
		}
		byMetric := out[r.Workload]
		if byMetric == nil {
			byMetric = map[string]*series{}
			out[r.Workload] = byMetric
		}
		for _, m := range r.Metrics {
			s := byMetric[m.Name]
			if s == nil {
				s = &series{better: m.Better, unit: m.Unit}
				byMetric[m.Name] = s
			}
			s.seeds = append(s.seeds, r.Seed)
			s.values = append(s.values, m.Value)
		}
	}
	return out
}

// improves reports whether head is better than base in direction
// better; equal values improve nothing.
func improves(better string, head, base float64) bool {
	if better == "higher" {
		return head > base
	}
	return head < base
}

// pairs matches base and head runs by seed; runs without a partner
// are left out.
func pairs(base, head *series) [][2]float64 {
	bySeed := map[int64][]float64{}
	for i, s := range base.seeds {
		bySeed[s] = append(bySeed[s], base.values[i])
	}
	var out [][2]float64
	for i, s := range head.seeds {
		if q := bySeed[s]; len(q) > 0 {
			out = append(out, [2]float64{q[0], head.values[i]})
			bySeed[s] = q[1:]
		}
	}
	return out
}

// claimVerdict applies the gain rule: the change wins at least nine
// tenths of at least ten paired runs (ties count for neither side),
// and the medians differ, in the claimed direction, by more than the
// parent's interquartile range.
func claimVerdict(base, head *series) (ok bool, why string) {
	ps := pairs(base, head)
	if len(ps) < 10 {
		return false, fmt.Sprintf("only %d paired runs, need 10", len(ps))
	}
	wins := 0
	for _, p := range ps {
		if improves(base.better, p[1], p[0]) {
			wins++
		}
	}
	q1, q3 := quartiles(base.values)
	iqr := q3 - q1
	mb, mh := median(base.values), median(head.values)
	diff := math.Abs(mh - mb)
	switch {
	case 10*wins < 9*len(ps):
		return false, fmt.Sprintf("won %d/%d pairs, need 9/10", wins, len(ps))
	case !improves(base.better, mh, mb):
		return false, fmt.Sprintf("median moved the wrong way (%.6g -> %.6g)", mb, mh)
	case diff <= iqr:
		return false, fmt.Sprintf("median difference %.6g is within the parent's IQR %.6g", diff, iqr)
	}
	return true, fmt.Sprintf("won %d/%d pairs; median %.6g -> %.6g beyond IQR %.6g", wins, len(ps), mb, mh, iqr)
}

// boundVerdict applies a no-regression bound: the change's median may
// be worse than the parent's by at most bound (a share of the parent's
// median). Where the parent's own spread exceeds the bound the metric
// is unresolved, unless every change run beats every parent run.
func boundVerdict(base, head *series, bound float64) string {
	mb, mh := median(base.values), median(head.values)
	if relSpread(base.values) > bound {
		allBetter := true
		for _, h := range head.values {
			for _, b := range base.values {
				if !improves(base.better, h, b) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "better"
		}
		return "unresolved"
	}
	worse := (mh - mb) / math.Abs(mb)
	if base.better == "higher" {
		worse = -worse
	}
	if worse > bound {
		return "REGRESSION"
	}
	return "ok"
}

// compareMain is `sesamebench compare`: it reads a parent result set
// and a change result set and prints one verdict per (workload,
// metric). Exit status 1 means a regression or a failed claim.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	basePath := fs.String("base", "", "records of the parent commit (JSON lines)")
	headPath := fs.String("head", "", "records of the change (JSON lines)")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition with the per-metric bounds")
	var claims multiFlag
	fs.Var(&claims, "claim", "workload:metric the change claims to improve (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePath == "" || *headPath == "" {
		fmt.Fprintln(out, "compare: -base and -head are required")
		return 2
	}
	bf, err := loadBenchFile(*benchPath)
	if err != nil {
		fmt.Fprintln(out, "compare:", err)
		return 2
	}
	baseRecs, err := readRecords(*basePath)
	if err != nil {
		fmt.Fprintln(out, "compare:", err)
		return 2
	}
	headRecs, err := readRecords(*headPath)
	if err != nil {
		fmt.Fprintln(out, "compare:", err)
		return 2
	}
	return compareSets(bf, collect(baseRecs), collect(headRecs), claims, out)
}

// compareSets prints the verdicts for two collected result sets.
func compareSets(bf *benchFile, base, head map[string]map[string]*series, claims []string, out io.Writer) int {
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	claimed := map[string]bool{}
	for _, c := range claims {
		claimed[c] = true
	}
	status := 0
	var workloads []string
	for w := range base {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	fmt.Fprintf(out, "%-12s %-22s %14s %14s %9s  %s\n", "workload", "metric", "base_median", "head_median", "base_iqr%", "verdict")
	for _, w := range workloads {
		var names []string
		for n := range base[w] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			b, h := base[w][n], head[w][n]
			if h == nil {
				fmt.Fprintf(out, "%-12s %-22s missing from the change's results\n", w, n)
				status = 1
				continue
			}
			verdict := ""
			key := w + ":" + n
			switch bound, hasBound := bounds[summaryName(w, n)]; {
			case claimed[key]:
				ok, why := claimVerdict(b, h)
				verdict = "claim met: " + why
				if !ok {
					verdict = "CLAIM NOT MET: " + why
					status = 1
				}
			case hasBound:
				verdict = boundVerdict(b, h, bound)
				if verdict == "REGRESSION" {
					status = 1
				}
				verdict += fmt.Sprintf(" (bound %g)", bound)
			default:
				verdict = "no bound (reported only)"
			}
			spread := "-"
			if median(b.values) != 0 {
				spread = fmt.Sprintf("%.2f", 100*relSpread(b.values))
			}
			fmt.Fprintf(out, "%-12s %-22s %14.6g %14.6g %9s  %s\n", w, n,
				median(b.values), median(h.values), spread, verdict)
		}
	}
	for c := range claimed {
		parts := strings.SplitN(c, ":", 2)
		if len(parts) != 2 || base[parts[0]] == nil || base[parts[0]][parts[1]] == nil {
			fmt.Fprintf(out, "claim %s: no such workload metric in the parent's results\n", c)
			status = 1
		}
	}
	return status
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }
