package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mkSeries(better string, values ...float64) *series {
	s := &series{better: better, unit: "x"}
	for i, v := range values {
		s.seeds = append(s.seeds, int64(i+1))
		s.values = append(s.values, v)
	}
	return s
}

func TestClaimNeedsNineOfTenAndBeyondIQR(t *testing.T) {
	base := mkSeries("higher", 100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	win := mkSeries("higher", 110, 111, 109, 110, 112, 108, 110, 111, 109, 100) // 9 wins, 1 tie
	if ok, why := claimVerdict(base, win); !ok {
		t.Errorf("9/10 wins with a 10-point gain rejected: %s", why)
	}
	eight := mkSeries("higher", 110, 111, 109, 110, 112, 108, 110, 111, 90, 90)
	if ok, _ := claimVerdict(base, eight); ok {
		t.Error("8/10 wins accepted")
	}
	small := mkSeries("higher", 100.5, 101.5, 99.5, 100.5, 102.5, 98.5, 100.5, 101.5, 99.5, 100.5)
	if ok, why := claimVerdict(base, small); ok {
		t.Errorf("gain within the parent's IQR accepted: %s", why)
	}
	nine := mkSeries("higher", 110, 111, 109, 110, 112, 108, 110, 111, 109)
	if ok, _ := claimVerdict(base, nine); ok {
		t.Error("a claim on nine pairs accepted")
	}
	lower := mkSeries("lower", 10, 10, 10, 10, 10, 10, 10, 10, 10, 10)
	worse := mkSeries("lower", 12, 12, 12, 12, 12, 12, 12, 12, 12, 12)
	if ok, _ := claimVerdict(lower, worse); ok {
		t.Error("a slowdown accepted as a gain")
	}
}

func TestBoundVerdict(t *testing.T) {
	base := mkSeries("lower", 10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10, 10.1, 9.9)
	if v := boundVerdict(base, mkSeries("lower", 10.5, 10.5, 10.5), 0.1); v != "ok" {
		t.Errorf("5%% slower within a 10%% bound: %s", v)
	}
	if v := boundVerdict(base, mkSeries("lower", 12, 12, 12), 0.1); v != "REGRESSION" {
		t.Errorf("20%% slower beyond a 10%% bound: %s", v)
	}
	noisy := mkSeries("higher", 50, 100, 150, 60, 140, 80, 120, 100, 90, 110)
	if v := boundVerdict(noisy, mkSeries("higher", 90, 95, 100), 0.1); v != "unresolved" {
		t.Errorf("spread beyond the bound: %s, want unresolved", v)
	}
	if v := boundVerdict(noisy, mkSeries("higher", 200, 210, 220), 0.1); v != "better" {
		t.Errorf("every change run above every parent run: %s, want better", v)
	}
}

func TestCompareReadsRecordsAndAppliesBounds(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rtf float64) string {
		var buf bytes.Buffer
		buf.WriteString("# a table line\n{\"correct\":true}\n")
		for seed := int64(1); seed <= 10; seed++ {
			rec := newRecord("fleet_1k", seed, 10, false)
			rec.Correct = true
			rec.add("rtf", "sim-s/wall-s", "higher", rtf+float64(seed%3)*0.1)
			rec.add("tick_p50_ms", "ms", "lower", 20)
			rec.add("tick_p95_ms", "ms", "lower", 40)
			if err := writeResult(&buf, rec, nil); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, slower := write("base.jsonl", 40), write("head.jsonl", 30)
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[
		{"name":"rtf","unit":"sim-s/wall-s","better":"higher","bound":0.1},
		{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := compareMain([]string{"-base", base, "-head", slower, "-benchmark", bench}, &out); code != 1 {
		t.Errorf("a 25%% rtf drop should fail compare, got exit %d:\n%s", code, out.String())
	}
	for _, want := range []string{"rtf", "REGRESSION", "tick_p50_ms", "ok (bound 0.1)", "tick_p95_ms", "no bound"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := compareMain([]string{"-base", base, "-head", base, "-benchmark", bench}, &out); code != 0 {
		t.Errorf("identical sets should pass, got exit %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{"-base", base, "-head", base, "-benchmark", bench, "-claim", "fleet_1k:rtf"}, &out); code != 1 {
		t.Errorf("a claim with no gain should fail, got exit %d:\n%s", code, out.String())
	}
}

func TestSummaryLineResolvesAliases(t *testing.T) {
	rec := newRecord("fleet_1k", 1, 10, false)
	rec.Correct, rec.Attempted = true, 5
	rec.add("tick_p50_ms", "ms", "lower", 18.5)
	var buf bytes.Buffer
	if err := writeResult(&buf, rec, []string{"op_p50_ms"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	if want := `{"correct":true,"attempted":5,"failed":0,"metrics":{"op_p50_ms":{"value":18.5,"unit":"ms"}}}`; last != want {
		t.Errorf("summary line\n%s\nwant\n%s", last, want)
	}
	if err := writeResult(&buf, rec, []string{"rtf"}); err == nil {
		t.Error("a summary naming an unmeasured metric should be an error")
	}
}
