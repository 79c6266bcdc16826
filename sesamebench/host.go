package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sesame/internal/missionhost"
	"sesame/internal/obsv"
	"sesame/internal/scenario"
)

const (
	// hostPopulation missions are registered at any time; hostMaxLive
	// of them fit in memory, so most are parked.
	hostPopulation = 48
	hostMaxLive    = 8
	// hostArchetypeEvery makes every sixth mission a generated
	// archetype (cycling maritime_sar, urban_canyon, multi_site), the
	// rest classic 3-UAV missions. urban_canyon keeps link frames in
	// flight and parks as a replay recipe; the others park as
	// checkpoints.
	hostArchetypeEvery = 6
	// hostWatched missions, the first of the population, are the ones
	// the SSE connection cycles over. Churn never deletes them, so a
	// stream never ends because its mission was removed.
	hostWatched = 12
	// Open-loop rates on the request connection: status reads, and
	// writes alternating DELETE and POST so the population stays
	// constant.
	hostReadRate  = 300.0
	hostWriteRate = 40.0
	// hostDwell is how long the SSE connection stays on one mission.
	hostDwell = 150 * time.Millisecond
	// hostGateSample missions are flown to completion in the host and
	// compared with their standalone flights.
	hostGateSample = 3
)

const (
	opRead = iota
	opDelete
	opCreate
)

// hostOp is one planned request of the open-loop generator.
type hostOp struct {
	due  time.Duration
	kind int
	id   string
	spec missionhost.Spec // for opCreate
}

// hostPlan is the seeded traffic of one host_mixed run: a pure
// function of the seed and the window, fixed before the host starts.
type hostPlan struct {
	initial []missionhost.Spec
	watched []string
	ops     []hostOp
	final   []missionhost.Spec // the population once every op ran
}

// hostSpec is the k-th mission the plan creates.
func hostSpec(rng *rand.Rand, id string, k int) missionhost.Spec {
	s := missionhost.Spec{ID: id, Seed: rng.Int63n(1_000_000) + 1}
	if k%hostArchetypeEvery == 0 {
		archs := scenario.Archetypes()
		s.Archetype = archs[(k/hostArchetypeEvery)%len(archs)]
	}
	s.Normalize()
	return s
}

func planHost(seed int64, window time.Duration) hostPlan {
	rng := rand.New(rand.NewSource(seed))
	var p hostPlan
	specs := map[string]missionhost.Spec{}
	var pop []string
	k := 0
	newSpec := func(prefix string) missionhost.Spec {
		s := hostSpec(rng, fmt.Sprintf("%s-%05d", prefix, k), k)
		k++
		specs[s.ID] = s
		pop = append(pop, s.ID)
		return s
	}
	for i := 0; i < hostPopulation; i++ {
		p.initial = append(p.initial, newSpec("m"))
	}
	p.watched = append([]string(nil), pop[:hostWatched]...)

	reads := poissonSchedule(rng, hostReadRate, window)
	writes := poissonSchedule(rng, hostWriteRate, window)
	w := 0
	for r := 0; r < len(reads) || w < len(writes); {
		if w < len(writes) && (r >= len(reads) || writes[w] < reads[r]) {
			op := hostOp{due: writes[w]}
			if w%2 == 0 {
				// Delete a uniformly chosen unwatched mission.
				i := hostWatched + rng.Intn(len(pop)-hostWatched)
				op.kind, op.id = opDelete, pop[i]
				pop = append(pop[:i], pop[i+1:]...)
			} else {
				op.kind, op.spec = opCreate, newSpec("c")
				op.id = op.spec.ID
			}
			p.ops = append(p.ops, op)
			w++
			continue
		}
		p.ops = append(p.ops, hostOp{due: reads[r], kind: opRead, id: pop[rng.Intn(len(pop))]})
		r++
	}
	for _, id := range pop {
		p.final = append(p.final, specs[id])
	}
	return p
}

// hostServer is a mission host served over a loopback listener.
type hostServer struct {
	h    *missionhost.Host
	srv  *http.Server
	ln   net.Listener
	base string
	done chan error
}

// startHost builds a host, registers the plan's initial population
// and, when serve is set, serves the HTTP surface on 127.0.0.1.
func startHost(dir string, plan hostPlan, workers int, reg *obsv.Registry, serve bool) (*hostServer, error) {
	h, err := missionhost.New(missionhost.Config{
		Workers: workers, MaxLive: hostMaxLive, ParkDir: dir, Observability: reg,
	})
	if err != nil {
		return nil, err
	}
	for _, s := range plan.initial {
		if _, err := h.Create(s); err != nil {
			h.Close()
			return nil, err
		}
	}
	hs := &hostServer{h: h}
	if !serve {
		return hs, nil
	}
	hs.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.Close()
		return nil, err
	}
	hs.base = "http://" + hs.ln.Addr().String()
	hs.srv = &http.Server{Handler: h.Handler(), ReadHeaderTimeout: 10 * time.Second}
	hs.done = make(chan error, 1)
	go func() { hs.done <- hs.srv.Serve(hs.ln) }()
	return hs, nil
}

// stop shuts the server down (waiting for its goroutine) and closes
// the host.
func (hs *hostServer) stop() error {
	var err error
	if hs.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = hs.srv.Shutdown(ctx)
		cancel()
		if serveErr := <-hs.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
			err = serveErr
		}
	}
	hs.h.Close()
	return err
}

// roundLoop calls Round back to back until stop is set: the host's
// closed-loop tick loop. With a tracer each round is a span.
func roundLoop(h *missionhost.Host, stop *atomic.Bool, tr *tracer) {
	for !stop.Load() {
		f := tr.begin("missionhost.Round", false)
		h.Round()
		tr.end(f, false)
	}
}

// hostTraffic is what the e2e window measured.
type hostTraffic struct {
	readMS, writeMS, lagMS, attachMS dist
	frames                           int
	attempted, failed                atomic.Int64
}

// request runs one HTTP request to completion, draining the body so
// the keep-alive connection is reused, and reports whether the status
// was the expected one.
func request(cl *http.Client, method, url string, body []byte, want int) error {
	var rd io.Reader
	if body != nil {
		rd = strings.NewReader(string(body))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d", method, url, resp.StatusCode, want)
	}
	return nil
}

// generate runs the plan's ops on one keep-alive connection, each
// sent at its due time (or at once when the generator is behind) and
// timed from that due time.
func generate(env *runEnv, cl *http.Client, base string, plan hostPlan, tt *hostTraffic) {
	origin := time.Now()
	for _, op := range plan.ops {
		pace(origin, op.due)
		sent := time.Since(origin)
		var err error
		switch op.kind {
		case opRead:
			err = request(cl, http.MethodGet, base+"/missions/"+op.id+"/status", nil, http.StatusOK)
		case opDelete:
			err = request(cl, http.MethodDelete, base+"/missions/"+op.id, nil, http.StatusNoContent)
		case opCreate:
			body, jerr := json.Marshal(op.spec)
			if jerr != nil {
				err = jerr
				break
			}
			err = request(cl, http.MethodPost, base+"/missions", body, http.StatusCreated)
		}
		t := timeOp(op.due, sent, time.Since(origin))
		tt.attempted.Add(1)
		if err != nil {
			tt.failed.Add(1)
			env.logf("host_mixed: %v", err)
		}
		ms := float64(t.latency) / float64(time.Millisecond)
		if op.kind == opRead {
			tt.readMS.add(ms)
		} else {
			tt.writeMS.add(ms)
		}
		tt.lagMS.add(float64(t.lateness) / float64(time.Millisecond))
	}
}

// missionState asks the host for one mission's registry state.
func missionState(cl *http.Client, base, id string) (string, error) {
	resp, err := cl.Get(base + "/missions/" + id)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /missions/%s: status %d", id, resp.StatusCode)
	}
	var info missionhost.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", err
	}
	return info.State, nil
}

// watch cycles SSE subscriptions over the watched missions until stop
// is set: subscribe, time the first frame (as an attach latency when
// the mission was parked), count frames for hostDwell, cancel. A
// stream that ends before the benchmark cancels it is a failure.
func watch(env *runEnv, base string, watched []string, stop *atomic.Bool, tt *hostTraffic) {
	cl := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	defer cl.CloseIdleConnections()
	for i := 0; !stop.Load(); i++ {
		id := watched[i%len(watched)]
		tt.attempted.Add(1)
		if err := watchOne(cl, base, id, tt); err != nil {
			tt.failed.Add(1)
			env.logf("host_mixed: stream %s: %v", id, err)
		}
	}
}

func watchOne(cl *http.Client, base, id string, tt *hostTraffic) error {
	state, err := missionState(cl, base, id)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/missions/"+id+"/stream", nil)
	if err != nil {
		return err
	}
	t := time.Now()
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	frames := make(chan struct{}, 64) // one slot per frame a dwell can plausibly see
	ended := make(chan error, 1)
	go func() {
		br := bufio.NewReader(resp.Body)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				ended <- err
				return
			}
			if line == "\n" { // a blank line ends one SSE frame
				select {
				case frames <- struct{}{}:
				case <-ctx.Done():
				}
			}
		}
	}()
	dwell := time.NewTimer(hostDwell)
	defer dwell.Stop()
	first := true
	for {
		select {
		case <-frames:
			if first && state == "parked" {
				tt.attachMS.add(float64(time.Since(t)) / float64(time.Millisecond))
			}
			first = false
			tt.frames++
		case err := <-ended:
			return fmt.Errorf("stream closed early: %v", err)
		case <-dwell.C:
			cancel()
			<-ended // the reader exits once the body read is cancelled
			return nil
		}
	}
}

// runHost is the host_mixed workload.
func runHost(env *runEnv, rec *Record) error {
	plan := planHost(env.seed, env.window)
	workers := env.nproc

	// Set-up: host construction, the initial population's Create
	// calls (with their capacity parking) and the listener, repeated.
	var setups []float64
	var hs *hostServer
	for i := 0; i < setupRepeats; i++ {
		if hs != nil {
			if err := hs.stop(); err != nil {
				return err
			}
		}
		t := time.Now()
		var err error
		hs, err = startHost(env.dir(fmt.Sprintf("park-%d", i)), plan, workers, nil, true)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	rec.add("setup_s", "s", "lower", median(setups)).Samples = len(setups)
	h := hs.h

	cl := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
	defer cl.CloseIdleConnections()

	var tt hostTraffic
	var stop atomic.Bool
	var wg sync.WaitGroup
	ticks0 := h.Stats().Ticks
	start := time.Now()
	wg.Add(2)
	go func() { defer wg.Done(); roundLoop(h, &stop, nil) }()
	go func() { defer wg.Done(); watch(env, hs.base, plan.watched, &stop, &tt) }()
	generate(env, cl, hs.base, plan, &tt)
	stop.Store(true)
	wg.Wait()
	wall := time.Since(start)
	stats := h.Stats()
	ticks := float64(stats.Ticks - ticks0)

	rec.Attempted += tt.attempted.Load()
	rec.Failed += tt.failed.Load()
	rec.add("rtf", "sim-s/wall-s", "higher", ticks/wall.Seconds())
	rec.add("mission_ticks_per_s", "1/s", "higher", ticks/wall.Seconds())
	rec.add("live_heap_mb", "MB", "lower", liveHeapMB())
	rec.timing("read_p50_ms", &tt.readMS, 50)
	rec.tail("read_p99_ms", &tt.readMS, 99)
	rec.timing("write_p50_ms", &tt.writeMS, 50)
	rec.tail("write_p99_ms", &tt.writeMS, 99)
	rec.timing("attach_p50_ms", &tt.attachMS, 50)
	rec.add("sse_frames_per_s", "1/s", "higher", float64(tt.frames)/wall.Seconds()).Samples = tt.frames

	correct, err := gateHost(env, h, plan)
	stopErr := hs.stop()
	if err != nil {
		return err
	}
	if stopErr != nil {
		return stopErr
	}
	rec.Correct = correct
	if env.traced {
		return traceHost(env, rec, plan, stats, &tt)
	}
	return nil
}

// gateHost flies a seeded sample of the final population to
// completion inside the host and compares each Host.Digest with the
// same Spec flown standalone.
func gateHost(env *runEnv, h *missionhost.Host, plan hostPlan) (bool, error) {
	rng := rand.New(rand.NewSource(env.seed))
	sample := []missionhost.Spec{plan.initial[0]} // an archetype, watched
	for i := 0; i < hostGateSample; i++ {
		sample = append(sample, plan.final[rng.Intn(len(plan.final))])
	}
	ok := true
	for _, s := range sample {
		for rounds := 0; ; rounds++ {
			info, err := h.Info(s.ID)
			if err != nil {
				return false, err
			}
			if info.Done {
				break
			}
			if rounds > 100000 {
				return false, fmt.Errorf("host_mixed: %s never finished", s.ID)
			}
			if err := h.Resume(s.ID); err != nil {
				return false, err
			}
			h.Round()
		}
		got, err := h.Digest(s.ID)
		if err != nil {
			return false, err
		}
		want, err := missionhost.FlyStandalone(s)
		if err != nil {
			return false, err
		}
		if got != want {
			ok = false
			env.logf("host_mixed: %s hosted digest %s, standalone %s", s.ID, got, want)
		}
	}
	return ok, nil
}

// traceHost replays the same seeded request sequence in-process on a
// fresh host with the obsv registry attached, timing each registry
// call as a span, and then runs the common probe flights on the
// population's own worlds.
func traceHost(env *runEnv, rec *Record, plan hostPlan, e2e missionhost.Stats, tt *hostTraffic) error {
	reg := obsv.NewRegistry()
	hs, err := startHost(env.dir("park-traced"), plan, env.nproc, reg, false)
	if err != nil {
		return err
	}
	defer hs.h.Close()
	h := hs.h

	roundTr, opTr, watchTr := newTracer(), newTracer(), newTracer()
	var stop atomic.Bool
	var wg sync.WaitGroup
	var watchErr error
	wg.Add(2)
	go func() { defer wg.Done(); roundLoop(h, &stop, roundTr) }()
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load() && watchErr == nil; i++ {
			id := plan.watched[i%len(plan.watched)]
			info, err := h.Info(id)
			if err != nil {
				watchErr = err
				return
			}
			if info.State == "parked" {
				f := watchTr.begin("missionhost.Resume", false)
				watchErr = h.Resume(id)
				watchTr.end(f, false)
			}
			time.Sleep(hostDwell)
			f := watchTr.begin("missionhost.Park", false)
			if err := h.Park(id); err != nil && watchErr == nil {
				watchErr = err
			}
			watchTr.end(f, false)
		}
	}()
	origin := time.Now()
	for _, op := range plan.ops {
		pace(origin, op.due)
		var err error
		switch op.kind {
		case opRead:
			f := opTr.begin("missionhost.Status", false)
			_, err = h.Status(op.id)
			opTr.end(f, false)
		case opDelete:
			f := opTr.begin("missionhost.Delete", false)
			err = h.Delete(op.id)
			opTr.end(f, false)
		case opCreate:
			f := opTr.begin("missionhost.Create", false)
			_, err = h.Create(op.spec)
			opTr.end(f, false)
		}
		rec.Attempted++
		if err != nil {
			rec.Failed++
			env.logf("host_mixed traced: %v", err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if watchErr != nil {
		return watchErr
	}

	var ticks float64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "sesame_missionhost_ticks_total" {
			ticks = float64(c.Count)
		}
	}
	spans := reduce(roundTr.spans)
	for k, v := range reduce(opTr.spans) {
		spans[k] = v
	}
	for k, v := range reduce(watchTr.spans) {
		spans[k] = v
	}
	medianOf := func(name string) float64 {
		if st := spans[name]; st != nil {
			return median(st.durs.xs)
		}
		return 0
	}
	rounds := spans["missionhost.Round"]
	if ticks > 0 && rounds != nil {
		rec.add("missionhost.round_ns_per_mission_tick", "ns", "lower", float64(rounds.total)/ticks)
	} else {
		rec.add("missionhost.round_ns_per_mission_tick", "ns", "lower", 0)
	}
	statusUS := medianOf("missionhost.Status") * 1e3
	rec.add("missionhost.status_us", "us", "lower", statusUS)
	rec.add("missionhost.create_ms", "ms", "lower", medianOf("missionhost.Create"))
	rec.add("missionhost.park_ms", "ms", "lower", medianOf("missionhost.Park"))
	rec.add("missionhost.rehydrate_ms", "ms", "lower", medianOf("missionhost.Resume"))
	rec.add("missionhost.delete_ms", "ms", "lower", medianOf("missionhost.Delete"))
	hitRatio := 0.0
	if n := e2e.CacheHits + e2e.CacheMisses; n > 0 {
		hitRatio = float64(e2e.CacheHits) / float64(n)
	}
	rec.add("missionhost.cache_hit_ratio", "ratio", "higher", hitRatio)
	rec.add("missionhost.sse_drops", "count", "lower", float64(e2e.SSEDrops))
	rec.add("missionhost.http_overhead_us", "us", "lower", tt.readMS.p(50)*1e3-statusUS)
	rec.tail("loadgen.lag_p99_ms", &tt.lagMS, 99)

	// Probe flights of the population's own worlds: the first classic
	// mission and the first mission of each archetype.
	var builds []buildFunc
	seen := map[string]bool{}
	for _, s := range plan.initial {
		s := s
		kind := s.Archetype
		if kind == "" {
			kind = "classic"
		}
		if seen[kind] {
			continue
		}
		seen[kind] = true
		builds = append(builds, func(reg *obsv.Registry) (*missionBuild, error) {
			if s.Archetype != "" {
				return buildScenario(s.Seed, s.Archetype, 0, reg)
			}
			return buildClassic(s.Seed, s.UAVs, s.Cells, 1, reg, "")
		})
	}
	return traceFlights(env, rec, builds, probeMaxTicks, true, 0, false, 1)
}
