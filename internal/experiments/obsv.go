package experiments

import (
	"io"
	"sort"
	"time"

	"sesame/internal/linksim"
	"sesame/internal/obsv"
	"sesame/internal/platform"
)

// ObsvMonitorRow is one monitor's latency summary over a full mission.
type ObsvMonitorRow struct {
	Monitor string
	Evals   uint64
	MeanUS  float64 // mean Observe latency, microseconds
	P95US   float64 // 95th-percentile latency (bucket upper bound)
	TotalMS float64 // total time spent in this monitor
	ShareP  float64 // share of the observe phase, percent
}

// ObsvPhaseRow is one scheduler phase's latency summary.
type ObsvPhaseRow struct {
	Phase   string
	Ticks   uint64
	MeanUS  float64
	TotalMS float64
}

// ObsvResult is the observability self-measurement: what the metrics
// layer sees during a seeded mission, and what it costs to run it.
type ObsvResult struct {
	Monitors []ObsvMonitorRow
	Phases   []ObsvPhaseRow

	// Trace-ring occupancy after the run.
	TraceRecorded uint64 // events recorded (including overwritten)
	TraceHeld     int    // events still in the ring
	TraceCap      int

	// Wall-clock cost of instrumentation: the same seeded mission run
	// with and without a registry attached.
	InstrumentedMS   float64
	UninstrumentedMS float64
	OverheadPct      float64

	CounterSeries int // deterministic counter series exported to Status
}

// RunObsv flies one seeded 3-UAV mission with full observability on
// (metrics registry, trace ring, instrumented lossy links), summarizes
// the per-monitor and per-phase latency profile, then reruns the same
// mission uninstrumented to measure the overhead of the metrics layer.
func RunObsv(seed int64) (*ObsvResult, error) {
	// The missions are short (a few ms), so any single wall-clock
	// sample is mostly scheduler/GC noise: fly the variants
	// alternating and keep each one's fastest flight. The registry
	// from the final instrumented flight is the one reported — the
	// counters are deterministic across flights. The authoritative
	// overhead number is BenchmarkPlatformTickFleet (BENCH_PR4.json);
	// this is a quick self-check.
	var reg *obsv.Registry
	instrumented, uninstrumented := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < 6; round++ {
		off, err := runObsvOnce(seed, nil)
		if err != nil {
			return nil, err
		}
		if off < uninstrumented {
			uninstrumented = off
		}
		reg = obsv.NewRegistry()
		reg.SetTrace(obsv.TraceRingForBudget(1 << 20)) // ~1 MiB of trace
		on, err := runObsvOnce(seed, reg)
		if err != nil {
			return nil, err
		}
		if on < instrumented {
			instrumented = on
		}
	}

	res := &ObsvResult{
		InstrumentedMS:   float64(instrumented) / float64(time.Millisecond),
		UninstrumentedMS: float64(uninstrumented) / float64(time.Millisecond),
		CounterSeries:    len(reg.CounterValues()),
	}
	if uninstrumented > 0 {
		res.OverheadPct = 100 * float64(instrumented-uninstrumented) / float64(uninstrumented)
	}
	ring := reg.Trace()
	res.TraceRecorded = ring.Total()
	res.TraceHeld = len(ring.Snapshot())
	res.TraceCap = ring.Capacity()

	snap := reg.Snapshot()
	var observeTotal float64
	for _, h := range snap.Histograms {
		if h.Name == "sesame_platform_phase_seconds" && h.Value == "observe" {
			observeTotal = h.Sum
		}
	}
	var ticks uint64
	for _, c := range snap.Counters {
		if c.Name == "sesame_platform_ticks_total" {
			ticks = c.Count
		}
	}
	for _, h := range snap.Histograms {
		switch h.Name {
		case "sesame_monitor_observe_seconds":
			if h.Count == 0 {
				continue
			}
			row := ObsvMonitorRow{
				Monitor: h.Value,
				Evals:   h.Count,
				MeanUS:  h.Sum / float64(h.Count) * 1e6,
				TotalMS: h.Sum * 1e3,
			}
			if observeTotal > 0 {
				row.ShareP = 100 * h.Sum / observeTotal
			}
			row.P95US = histQuantileUS(h, 0.95)
			res.Monitors = append(res.Monitors, row)
		case "sesame_platform_phase_seconds":
			if h.Count == 0 {
				continue
			}
			res.Phases = append(res.Phases, ObsvPhaseRow{
				Phase:   h.Value,
				Ticks:   ticks,
				MeanUS:  h.Sum / float64(h.Count) * 1e6,
				TotalMS: h.Sum * 1e3,
			})
		}
	}
	sort.Slice(res.Monitors, func(i, j int) bool { return res.Monitors[i].TotalMS > res.Monitors[j].TotalMS })
	return res, nil
}

// histQuantileUS estimates quantile q from a snapshot's bucket counts,
// in microseconds (the bucket upper bound containing the quantile).
func histQuantileUS(h obsv.HistogramSample, q float64) float64 {
	rank := uint64(q * float64(h.Count))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			if i < len(h.Bounds) {
				return h.Bounds[i] * 1e6
			}
			break
		}
	}
	if n := len(h.Bounds); n > 0 {
		return h.Bounds[n-1] * 1e6
	}
	return 0
}

// runObsvOnce flies the standard 3-UAV mission (mildly lossy links so
// the link-layer counters are exercised) and returns the wall-clock
// time spent in the mission loop. reg == nil flies it uninstrumented.
func runObsvOnce(seed int64, reg *obsv.Registry) (time.Duration, error) {
	cfg := platform.DefaultConfig()
	cfg.Observability = reg
	l, err := platform.Recipe{Seed: seed, UAVs: 3, AreaSideM: 350, HorizonS: 900,
		Link: &platform.LinkPlan{Name: "obsv", Profile: linksim.Profile{DropProb: 0.02, DupProb: 0.01}}}.Build(cfg)
	if err != nil {
		return 0, err
	}
	p := l.Platform
	defer p.Close()
	wall := time.Now()
	for l.World.Clock.Now() < l.End && !p.MissionComplete() {
		if err := p.Tick(); err != nil {
			return 0, err
		}
	}
	return time.Since(wall), nil
}

// Print writes the observability report.
func (r *ObsvResult) Print(w io.Writer) {
	printf(w, "== Observability self-measurement (-exp obsv) ==\n")
	printf(w, "Scheduler phases (per tick):\n")
	printf(w, "  %-8s %8s %10s %10s\n", "phase", "ticks", "mean µs", "total ms")
	for _, p := range r.Phases {
		printf(w, "  %-8s %8d %10.1f %10.2f\n", p.Phase, p.Ticks, p.MeanUS, p.TotalMS)
	}
	printf(w, "Monitor latency (observe phase):\n")
	printf(w, "  %-10s %8s %10s %10s %10s %7s\n", "monitor", "evals", "mean µs", "p95 ≤µs", "total ms", "share")
	for _, m := range r.Monitors {
		printf(w, "  %-10s %8d %10.2f %10.1f %10.2f %6.1f%%\n",
			m.Monitor, m.Evals, m.MeanUS, m.P95US, m.TotalMS, m.ShareP)
	}
	printf(w, "Trace ring: %d events recorded, %d held (cap %d)\n",
		r.TraceRecorded, r.TraceHeld, r.TraceCap)
	printf(w, "Deterministic counter series in Status: %d\n", r.CounterSeries)
	printf(w, "Mission wall time: %.1f ms instrumented vs %.1f ms uninstrumented (overhead %+.1f%%)\n",
		r.InstrumentedMS, r.UninstrumentedMS, r.OverheadPct)
}
