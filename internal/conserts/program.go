package conserts

// The compiled form of a Composition. NewComposition resolves every
// name once:
//
//   - each guarantee gets a guarantee slot, in topological ConSert
//     order and declaration order within a ConSert;
//   - each runtime-evidence name a condition references gets an
//     evidence slot;
//   - each condition tree becomes short-circuit jump code: one node
//     per RtE or Demand leaf, which reads one slot and jumps to its
//     true or its false successor, until it reaches the certified or
//     the refused exit. And and Or exist only as the wiring of those
//     jumps.
//
// Evaluation fills the guarantee slots in order. Because a ConSert only
// demands guarantees of ConSerts earlier in the order, every
// cross-ConSert demand reads a slot already written in this pass. A
// demand on the demanding guarantee itself or on a later guarantee of
// the same ConSert is false: that guarantee is not certified yet when
// the condition is decided, so the demand compiles to its false
// successor. With both rules no guarantee slot is read before it is
// written, so the slots never need clearing between evaluations.

import "sort"

// EvidenceVector holds runtime evidence truth values by slot, the
// indexed counterpart of Evidence. Create one with
// Composition.NewEvidenceVector and address it with EvidenceSlot.
type EvidenceVector []bool

// Exits of a condition's jump code; node indices are non-negative.
const (
	certified int32 = -1
	refused   int32 = -2
)

// node is one condition leaf. It reads slot of the evaluation vector
// (guarantee slots first, then evidence slots) and continues at
// onTrue or onFalse: another node or an exit.
type node struct {
	slot, onTrue, onFalse int32
}

// span describes one ConSert's guarantee slots.
type span struct {
	name string
	// byID lists the slots sorted by guarantee ID (Result.Satisfied).
	byID []int32
	// byRank lists the slots best first: rank descending, declaration
	// order among equal ranks, so the first satisfied one is the
	// first-declared guarantee of the highest satisfied rank.
	byRank []int32
}

// best returns the slot of the span's best satisfied guarantee, or -1.
func (sp *span) best(sat []bool) int32 {
	for _, g := range sp.byRank {
		if sat[g] {
			return g
		}
	}
	return -1
}

// program is the compiled composition embedded in Composition.
type program struct {
	spans []span       // per ConSert, in evaluation order
	guars []*Guarantee // guarantee slot -> guarantee
	roots []int32      // guarantee slot -> entry node or exit
	nodes []node
	// evNames maps evidence slots to names; evSlot is its inverse.
	evNames []string
	evSlot  map[string]int32
	// uav lists the UAV ConSert's guarantees best first with their
	// actions; uavEnd bounds the guarantee slots an action depends on
	// (0 when the composition has no UAV ConSert).
	uav    []uavChoice
	uavEnd int
}

// compile assigns the guarantee slots and compiles every condition.
func (comp *Composition) compile() {
	gSlot := make(map[string]int32)
	for _, name := range comp.order {
		c := comp.conserts[name]
		sp := span{name: name}
		for i := range c.Guarantees {
			g := &c.Guarantees[i]
			slot := int32(len(comp.guars))
			gSlot[name+"/"+g.ID] = slot
			comp.guars = append(comp.guars, g)
			sp.byID = append(sp.byID, slot)
		}
		sp.byRank = append([]int32(nil), sp.byID...)
		sort.Slice(sp.byID, func(i, j int) bool { return comp.guars[sp.byID[i]].ID < comp.guars[sp.byID[j]].ID })
		sort.SliceStable(sp.byRank, func(i, j int) bool { return comp.guars[sp.byRank[i]].Rank > comp.guars[sp.byRank[j]].Rank })
		comp.spans = append(comp.spans, sp)
		if name == ConSertUAV {
			comp.uav = uavChoices(comp.guars, sp.byRank)
			comp.uavEnd = len(comp.guars)
		}
	}
	cc := compiler{gSlot: gSlot, evSlot: make(map[string]int32), nG: int32(len(comp.guars))}
	comp.roots = make([]int32, len(comp.guars))
	for slot, g := range comp.guars {
		cc.self = int32(slot)
		comp.roots[slot] = certified
		if g.Cond != nil {
			comp.roots[slot] = g.Cond.compile(&cc, certified, refused)
		}
	}
	comp.nodes, comp.evNames, comp.evSlot = cc.nodes, cc.evNames, cc.evSlot
}

// compiler accumulates the nodes while conditions compile. Each
// compile call returns the entry of the expression's code given the
// successors to continue at when it is true and when it is false.
type compiler struct {
	nodes   []node
	evNames []string
	evSlot  map[string]int32
	gSlot   map[string]int32 // "consert/guarantee" -> guarantee slot
	nG      int32            // guarantee slots; evidence slots follow
	self    int32            // slot of the guarantee being compiled
}

func (c *compiler) leaf(slot, onTrue, onFalse int32) int32 {
	c.nodes = append(c.nodes, node{slot: slot, onTrue: onTrue, onFalse: onFalse})
	return int32(len(c.nodes) - 1)
}

func (c *compiler) rte(name string, onTrue, onFalse int32) int32 {
	slot, ok := c.evSlot[name]
	if !ok {
		slot = int32(len(c.evNames))
		c.evSlot[name] = slot
		c.evNames = append(c.evNames, name)
	}
	return c.leaf(c.nG+slot, onTrue, onFalse)
}

// demand compiles a demand NewComposition has already resolved. A
// demand on the guarantee being compiled or a later one of the same
// ConSert is never certified when read (see the file comment).
func (c *compiler) demand(key string, onTrue, onFalse int32) int32 {
	if slot := c.gSlot[key]; slot < c.self {
		return c.leaf(slot, onTrue, onFalse)
	}
	return onFalse
}

// nary wires the children back to front: each And child continues at
// the next child when true, each Or child when false. An empty And is
// true, an empty Or false.
func (c *compiler) nary(and bool, kids []Expr, onTrue, onFalse int32) int32 {
	entry := onFalse
	if and {
		entry = onTrue
	}
	for i := len(kids) - 1; i >= 0; i-- {
		if and {
			entry = kids[i].compile(c, entry, onFalse)
		} else {
			entry = kids[i].compile(c, onTrue, entry)
		}
	}
	return entry
}

// NewEvidenceVector returns an all-false evidence vector for the
// composition.
func (comp *Composition) NewEvidenceVector() EvidenceVector {
	return make(EvidenceVector, len(comp.evNames))
}

// EvidenceSlot returns the slot of the named runtime evidence in the
// composition's evidence vectors, or -1 when no condition references
// it.
func (comp *Composition) EvidenceSlot(name string) int {
	if slot, ok := comp.evSlot[name]; ok {
		return int(slot)
	}
	return -1
}

// newVector returns an evaluation vector: the guarantee slots, then
// the evidence slots.
func (comp *Composition) newVector() []bool {
	return make([]bool, len(comp.guars)+len(comp.evNames))
}

// load fills the evidence slots of vec from name-keyed evidence;
// missing names read false.
func (comp *Composition) load(vec []bool, ev Evidence) {
	evs := vec[len(comp.guars):]
	for i, name := range comp.evNames {
		evs[i] = ev[name]
	}
}

// run evaluates guarantee slots [0, end) of vec, whose evidence slots
// are filled.
func (comp *Composition) run(vec []bool, end int) {
	for g, pc := range comp.roots[:end] {
		for pc >= 0 {
			nd := &comp.nodes[pc]
			if vec[nd.slot] {
				pc = nd.onTrue
			} else {
				pc = nd.onFalse
			}
		}
		vec[g] = pc == certified
	}
}
