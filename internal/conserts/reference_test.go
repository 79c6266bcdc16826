package conserts

// Differential tests of the compiled evaluator against the
// tree-walking evaluator it replaced. The reference below walks each
// condition over name-keyed evidence and a "consert/guarantee"
// satisfied set, ConSert by ConSert in topological order and guarantee
// by guarantee in declaration order; the compiled program must agree
// with it on every satisfied set, every best guarantee and the UAV
// action.

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refEval is the reference tree walk of one condition.
func refEval(e Expr, ev Evidence, satisfied map[string]bool) bool {
	switch v := e.(type) {
	case rte:
		return ev[string(v)]
	case demand:
		return satisfied[string(v)]
	case nary:
		if v.op == "and" {
			for _, k := range v.kids {
				if !refEval(k, ev, satisfied) {
					return false
				}
			}
			return true
		}
		for _, k := range v.kids {
			if refEval(k, ev, satisfied) {
				return true
			}
		}
		return false
	}
	panic(fmt.Sprintf("refEval: unexpected expression %T", e))
}

// refEvaluate is the reference bottom-up resolution.
func refEvaluate(comp *Composition, ev Evidence) map[string]Result {
	satisfied := map[string]bool{}
	out := make(map[string]Result, len(comp.order))
	for _, name := range comp.order {
		c := comp.conserts[name]
		res := Result{ConSert: name}
		var best *Guarantee
		for i := range c.Guarantees {
			g := &c.Guarantees[i]
			if g.Cond == nil || refEval(g.Cond, ev, satisfied) {
				satisfied[name+"/"+g.ID] = true
				res.Satisfied = append(res.Satisfied, g.ID)
				if best == nil || g.Rank > best.Rank {
					best = g
				}
			}
		}
		res.Best = best
		sort.Strings(res.Satisfied)
		out[name] = res
	}
	return out
}

// refUAVAction is the reference mapping of the UAV ConSert's best
// guarantee to a flight action.
func refUAVAction(results map[string]Result) (UAVAction, error) {
	uavRes, ok := results[ConSertUAV]
	if !ok {
		return ActionEmergencyLand, fmt.Errorf("conserts: composition has no %q ConSert", ConSertUAV)
	}
	if uavRes.Best == nil {
		return ActionEmergencyLand, nil
	}
	switch uavRes.Best.ID {
	case GuaranteeUAVContinueTakeover:
		return ActionContinueTakeover, nil
	case GuaranteeUAVContinue:
		return ActionContinue, nil
	case GuaranteeUAVHold:
		return ActionHold, nil
	case GuaranteeUAVReturn:
		return ActionReturnToBase, nil
	default:
		return ActionEmergencyLand, fmt.Errorf("conserts: unknown UAV guarantee %q", uavRes.Best.ID)
	}
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// checkReference asserts that every evaluation path of comp agrees
// with the reference under ev. e is reused across calls on purpose: a
// stale guarantee vector must never leak into the next evaluation.
func checkReference(t testing.TB, comp *Composition, e *Evaluator, ev Evidence, label string) {
	t.Helper()
	want := refEvaluate(comp, ev)
	wantAct, wantErr := refUAVAction(want)

	if got := comp.Evaluate(ev); !reflect.DeepEqual(got, want) {
		for name, w := range want {
			g := got[name]
			if !reflect.DeepEqual(g.Satisfied, w.Satisfied) || g.Best != w.Best {
				t.Fatalf("%s: ConSert %q: got satisfied %v best %v, want %v best %v",
					label, name, g.Satisfied, g.Best, w.Satisfied, w.Best)
			}
		}
		t.Fatalf("%s: Evaluate = %v, want %v", label, got, want)
	}
	act, results, err := EvaluateUAV(comp, ev)
	if act != wantAct || !sameErr(err, wantErr) || !reflect.DeepEqual(results, want) {
		t.Fatalf("%s: EvaluateUAV = %v, %v; want %v, %v", label, act, err, wantAct, wantErr)
	}
	if act, err := e.UAVAction(ev); act != wantAct || !sameErr(err, wantErr) {
		t.Fatalf("%s: Evaluator.UAVAction = %v, %v; want %v, %v", label, act, err, wantAct, wantErr)
	}
	v := comp.NewEvidenceVector()
	for name, val := range ev {
		if slot := comp.EvidenceSlot(name); slot >= 0 {
			v[slot] = val
		}
	}
	if act, err := e.Action(v); act != wantAct || !sameErr(err, wantErr) {
		t.Fatalf("%s: Evaluator.Action = %v, %v; want %v, %v", label, act, err, wantAct, wantErr)
	}
}

// TestFig1MatchesReference compares every ConSert of the Fig. 1
// composition over all 512 evidence masks.
func TestFig1MatchesReference(t *testing.T) {
	comp := mustComp(t)
	e := NewEvaluator(comp)
	for mask := 0; mask < 1<<len(evidenceNames); mask++ {
		checkReference(t, comp, e, evidenceFromMask(uint16(mask)), fmt.Sprintf("mask %09b", mask))
	}
}

// genComposition builds a random acyclic composition. ConSert i may
// demand any guarantee of ConSerts 0..i-1 and any guarantee of itself
// (earlier, itself or later in declaration order). Names are random so
// the topological order is not the declaration order, ranks collide
// often, and one ConSert may be the UAV ConSert with a guarantee that
// has no flight action.
func genComposition(rng *rand.Rand, nConserts, maxGuarantees int, evPool []string) []*ConSert {
	cs := make([]*ConSert, nConserts)
	uavAt := -1
	if rng.Intn(2) == 0 {
		uavAt = rng.Intn(nConserts)
	}
	names := map[string]bool{ConSertUAV: true}
	for i := range cs {
		name := ConSertUAV
		if i != uavAt {
			for names[name] {
				name = fmt.Sprintf("c%03d", rng.Intn(1000))
			}
			names[name] = true
		}
		var ids []string
		if i == uavAt {
			ids = []string{GuaranteeUAVContinueTakeover, GuaranteeUAVContinue, GuaranteeUAVHold, GuaranteeUAVReturn, "unmapped"}
			rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
			ids = ids[:1+rng.Intn(len(ids))]
		} else {
			seen := map[string]bool{}
			for n := 1 + rng.Intn(maxGuarantees); len(ids) < n; {
				id := fmt.Sprintf("g%02d", rng.Intn(100))
				if !seen[id] {
					seen[id] = true
					ids = append(ids, id)
				}
			}
		}
		c := &ConSert{Name: name}
		for _, id := range ids {
			c.Guarantees = append(c.Guarantees, Guarantee{ID: id, Rank: rng.Intn(3)})
		}
		cs[i] = c
	}
	var expr func(i, depth int) Expr
	expr = func(i, depth int) Expr {
		switch k := rng.Intn(10); {
		case depth < 3 && k < 4:
			kids := make([]Expr, rng.Intn(4))
			for j := range kids {
				kids[j] = expr(i, depth+1)
			}
			if k < 2 {
				return And(kids...)
			}
			return Or(kids...)
		case k < 7:
			return RtE(evPool[rng.Intn(len(evPool))])
		default:
			p := cs[rng.Intn(i+1)] // an earlier ConSert or this one
			return Demand(p.Name, p.Guarantees[rng.Intn(len(p.Guarantees))].ID)
		}
	}
	for i, c := range cs {
		for j := range c.Guarantees {
			if rng.Intn(8) != 0 {
				c.Guarantees[j].Cond = expr(i, 0)
			}
		}
	}
	rng.Shuffle(len(cs), func(a, b int) { cs[a], cs[b] = cs[b], cs[a] })
	return cs
}

// genEvidence sets each pool name true, false or leaves it missing, and
// adds names no condition references.
func genEvidence(rng *rand.Rand, evPool []string) Evidence {
	ev := Evidence{}
	for _, n := range evPool {
		switch rng.Intn(3) {
		case 0:
			ev[n] = true
		case 1:
			ev[n] = false
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		ev[fmt.Sprintf("unreferenced-%d", i)] = rng.Intn(2) == 0
	}
	return ev
}

func evidencePool(n int) []string {
	pool := make([]string, n)
	for i := range pool {
		pool[i] = fmt.Sprintf("ev-%03d", i)
	}
	return pool
}

// TestRandomCompositionsMatchReference runs the differential check on
// seeded random compositions, small and larger than 64 guarantees and
// 64 evidence names.
func TestRandomCompositionsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sizes := []struct{ conserts, guarantees, pool int }{
		{1, 4, 3}, {3, 4, 6}, {6, 5, 10}, {24, 8, 160},
	}
	var wide bool
	for trial := 0; trial < 400; trial++ {
		sz := sizes[trial%len(sizes)]
		pool := evidencePool(sz.pool)
		comp, err := NewComposition(genComposition(rng, sz.conserts, sz.guarantees, pool)...)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wide = wide || len(comp.guars) > 64 && len(comp.evNames) > 64
		e := NewEvaluator(comp)
		for k := 0; k < 16; k++ {
			checkReference(t, comp, e, genEvidence(rng, pool), fmt.Sprintf("trial %d evidence %d", trial, k))
		}
	}
	if !wide {
		t.Fatal("no composition exceeded 64 guarantees and 64 evidence names")
	}
}

// TestEqualRanksFirstDeclaredWins pins the tie-break: among satisfied
// guarantees of equal rank, the first declared is best.
func TestEqualRanksFirstDeclaredWins(t *testing.T) {
	c := &ConSert{Name: ConSertUAV, Guarantees: []Guarantee{
		{ID: GuaranteeUAVReturn, Rank: 1},
		{ID: GuaranteeUAVHold, Rank: 2, Cond: RtE("a")},
		{ID: GuaranteeUAVContinue, Rank: 2},
	}}
	comp, err := NewComposition(c)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEvaluator(comp)
	for _, tc := range []struct {
		ev   Evidence
		want UAVAction
	}{{Evidence{"a": true}, ActionHold}, {Evidence{}, ActionContinue}} {
		if got, err := e.UAVAction(tc.ev); err != nil || got != tc.want {
			t.Errorf("evidence %v: action %v (%v), want %v", tc.ev, got, err, tc.want)
		}
		checkReference(t, comp, e, tc.ev, fmt.Sprint(tc.ev))
	}
}

// TestSameConSertDemands pins demands inside one ConSert: an earlier
// guarantee reads its certified value, the guarantee itself and later
// ones read false.
func TestSameConSertDemands(t *testing.T) {
	c := &ConSert{Name: "s", Guarantees: []Guarantee{
		{ID: "early", Rank: 1},
		{ID: "reads-early", Rank: 2, Cond: Demand("s", "early")},
		{ID: "reads-self", Rank: 3, Cond: Or(Demand("s", "reads-self"), RtE("x"))},
		{ID: "reads-late", Rank: 4, Cond: Demand("s", "late")},
		{ID: "late", Rank: 0},
	}}
	comp, err := NewComposition(c)
	if err != nil {
		t.Fatal(err)
	}
	res := comp.Evaluate(Evidence{})["s"]
	if want := []string{"early", "late", "reads-early"}; !reflect.DeepEqual(res.Satisfied, want) {
		t.Fatalf("satisfied = %v, want %v", res.Satisfied, want)
	}
	if res.Best == nil || res.Best.ID != "reads-early" {
		t.Fatalf("best = %v, want reads-early", res.Best)
	}
	e := NewEvaluator(comp)
	for _, ev := range []Evidence{{}, {"x": true}} {
		checkReference(t, comp, e, ev, fmt.Sprint(ev))
	}
}

// TestEvaluatorRejectsForeignVector keeps a wrong-length evidence
// vector from being read out of bounds.
func TestEvaluatorRejectsForeignVector(t *testing.T) {
	e := NewEvaluator(mustComp(t))
	if _, err := e.Action(make(EvidenceVector, 3)); !errors.Is(err, errVectorLen) {
		t.Fatalf("err = %v, want %v", err, errVectorLen)
	}
	if slot := mustComp(t).EvidenceSlot("no-such-evidence"); slot != -1 {
		t.Fatalf("unknown evidence slot = %d, want -1", slot)
	}
}

// TestActionAllocationFree gates the per-tick evaluation: the indexed
// and the name-keyed Evaluator calls allocate nothing.
func TestActionAllocationFree(t *testing.T) {
	comp := mustComp(t)
	e := NewEvaluator(comp)
	ev := fullEvidence()
	v := comp.NewEvidenceVector()
	for name, val := range ev {
		v[comp.EvidenceSlot(name)] = val
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.Action(v); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Evaluator.Action allocates %.1f per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.UAVAction(ev); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Evaluator.UAVAction allocates %.1f per call, want 0", allocs)
	}
}

// BenchmarkUAVAction times one UAV action over each of the 512 Fig. 1
// evidence masks in turn, through the indexed and the name-keyed
// Evaluator calls.
func BenchmarkUAVAction(b *testing.B) {
	comp, err := BuildUAVComposition()
	if err != nil {
		b.Fatal(err)
	}
	maps := make([]Evidence, 1<<len(evidenceNames))
	vecs := make([]EvidenceVector, len(maps))
	for m := range maps {
		maps[m] = evidenceFromMask(uint16(m))
		vecs[m] = comp.NewEvidenceVector()
		for name, val := range maps[m] {
			vecs[m][comp.EvidenceSlot(name)] = val
		}
	}
	e := NewEvaluator(comp)
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Action(vecs[i%len(vecs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("name-keyed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.UAVAction(maps[i%len(maps)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// FuzzParseComposition checks that every document ParseComposition
// accepts evaluates identically under the compiled and the reference
// evaluators, for a few evidence assignments derived from the input.
func FuzzParseComposition(f *testing.F) {
	fig1, err := BuildUAVComposition()
	if err != nil {
		f.Fatal(err)
	}
	doc, err := json.Marshal(fig1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doc)
	f.Add([]byte(`{"conserts":[{"name":"s","guarantees":[` +
		`{"id":"a","rank":1,"cond":{"demand":"s/b"}},{"id":"b","rank":1},` +
		`{"id":"c","rank":2,"cond":{"or":[{"rte":"x"},{"demand":"s/a"}]}}]}]}`))
	f.Add([]byte(`{"conserts":[{"name":"uav","guarantees":[` +
		`{"id":"continue","rank":2,"cond":{"demand":"p/ok"}},{"id":"unmapped","rank":2},{"id":"hold","rank":1}]},` +
		`{"name":"p","guarantees":[{"id":"ok","cond":{"and":[{"rte":"x"},{"rte":"y"}]}}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		comp, err := ParseComposition(data)
		if err != nil {
			return
		}
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		pool := append(append([]string(nil), comp.evNames...), "unreferenced")
		e := NewEvaluator(comp)
		for k := 0; k < 4; k++ {
			checkReference(t, comp, e, genEvidence(rng, pool), fmt.Sprintf("evidence %d", k))
		}
	})
}
