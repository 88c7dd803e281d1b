package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand/v2"
	"strconv"

	"repro/internal/meta"
	"repro/internal/wire"
)

// The design project every workload runs against: T independent trees,
// each a depth-3, fanout-3 use-hierarchy of 13 schematic blocks (1 root,
// 3 mid, 9 leaf), every block with a derived netlist and layout — 39 OIDs
// and 38 links per tree under the built-in EDTC_example blueprint.  A
// "ckin down" on a schematic posts outofdate, which fans out over the
// subtree's use links and each block's derive links, so the cost of a
// check-in depends on where in the hierarchy it lands.
const (
	blocksPerTree = 13
	oidsPerTree   = 3 * blocksPerTree
	linksPerTree  = (blocksPerTree - 1) + 2*blocksPerTree
	firstMid      = 1
	firstLeaf     = 4
	batchSize     = 8
)

var views = [3]string{"schematic", "netlist", "layout"}

// lsnArg stands in for the pinned LSN in the hashed op sequence: the
// position is only known at run time, everything else is generated.
const lsnArg = "@lsn"

func blockName(tree, i int) string {
	return "t" + strconv.Itoa(tree) + "b" + strconv.Itoa(i)
}

// Class is one op class of the traffic mix.
type Class int

const (
	Post  Class = iota // POST ckin down <schematic>
	Batch              // BATCH of 8 ckin on leaves of one tree
	Tool               // POST nl_sim|drc down <oid> good|bad
	Churn              // CREATE a new netlist version of a leaf, LINK derive from the version before it
	State              // STATE <oid>
	Query              // QUERY <lsn> reach <root> all | deps <leaf>
	Scan               // REPORT | GAP | REPORT <lsn> | GAP <lsn>
	numClasses
)

var classNames = [numClasses]string{"post", "batch", "tool", "churn", "state", "query", "scan"}

func (c Class) String() string { return classNames[c] }

// Type groups classes the way a user sees them: writes a wrapper blocks on,
// point reads a wrapper asks before running a tool, scans a designer polls.
type Type int

const (
	Write Type = iota
	Point
	ScanT
	numTypes
)

var typeNames = [numTypes]string{"write", "point", "scan"}

func (t Type) String() string { return typeNames[t] }

func (c Class) Type() Type {
	switch c {
	case State, Query:
		return Point
	case Scan:
		return ScanT
	}
	return Write
}

// Mix is the weight of each class; a workload's weights are percentages.
type Mix [numClasses]int

func (m Mix) total() int {
	n := 0
	for _, weight := range m {
		n += weight
	}
	return n
}

// only returns the mix restricted to the classes of one type.
func (m Mix) only(t Type) Mix {
	for c := range m {
		if Class(c).Type() != t {
			m[c] = 0
		}
	}
	return m
}

// Op is one generated operation.  Keys holds its targets: one for post,
// tool, state and query, eight for batch, {new netlist version, the version
// before it} for churn.  Sub selects the variant inside the class.
type Op struct {
	Class Class
	Tree  int // -1 for scans, which touch every tree
	Sub   int // post: hierarchy level 0 leaf, 1 mid, 2 root; tool: 0 nl_sim, 1 drc; query: 0 reach, 1 deps; scan: 0 REPORT, 1 GAP, 2 REPORT <lsn>, 3 GAP <lsn>
	Arg   string
	Keys  []meta.Key
}

// Requests renders the op as the wire requests a client sends for it, with
// lsn in the pinned-read positions.
func (o *Op) Requests(lsn string) []wire.Request {
	switch o.Class {
	case Post:
		return []wire.Request{{Verb: wire.VerbPost, Args: []string{"ckin", "down", o.Keys[0].String()}}}
	case Batch:
		args := make([]string, len(o.Keys))
		for i, it := range o.batchItems() {
			args[i] = it.Encode()
		}
		return []wire.Request{{Verb: wire.VerbBatch, Args: args}}
	case Tool:
		return []wire.Request{{Verb: wire.VerbPost, Args: []string{o.toolEvent(), "down", o.Keys[0].String(), o.Arg}}}
	case Churn:
		return []wire.Request{
			{Verb: wire.VerbCreate, Args: []string{o.Keys[0].Block, o.Keys[0].View}},
			{Verb: wire.VerbLink, Args: []string{"derive", o.Keys[1].String(), o.Keys[0].String()}},
		}
	case State:
		return []wire.Request{{Verb: wire.VerbState, Args: []string{o.Keys[0].String()}}}
	case Query:
		if o.Sub == 0 {
			return []wire.Request{{Verb: wire.VerbQuery, Args: []string{lsn, "reach", o.Keys[0].String(), "all"}}}
		}
		return []wire.Request{{Verb: wire.VerbQuery, Args: []string{lsn, "deps", o.Keys[0].String()}}}
	default:
		verb := wire.VerbReport
		if o.Sub&1 == 1 {
			verb = wire.VerbGap
		}
		if o.Sub >= 2 {
			return []wire.Request{{Verb: verb, Args: []string{lsn}}}
		}
		return []wire.Request{{Verb: verb}}
	}
}

func (o *Op) toolEvent() string {
	if o.Sub == 0 {
		return "nl_sim"
	}
	return "drc"
}

func (o *Op) batchItems() []wire.BatchItem {
	items := make([]wire.BatchItem, len(o.Keys))
	for i, k := range o.Keys {
		items[i] = wire.BatchItem{Event: "ckin", Dir: "down", OID: k.String()}
	}
	return items
}

// deck deals its cards in a seeded random order and reshuffles when it
// runs out, so that any stretch of draws holds each value in its exact
// share, to within one deck.  Drawing classes and hierarchy levels this way
// keeps what a write costs on average — records, bytes, propagations — the
// same from seed to seed; the seed still decides the order of the ops and
// which trees and blocks they hit.
type deck struct {
	cards []int
	next  int
}

func newDeck(counts ...int) deck {
	var d deck
	for value, n := range counts {
		for i := 0; i < n; i++ {
			d.cards = append(d.cards, value)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) draw(rng *rand.Rand) int {
	if d.next == len(d.cards) {
		rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// Generator produces the op sequence of one (seed, mix, T): the same
// arguments give byte-identical sequences, and Hash covers every op
// produced so far.  It tracks the newest netlist version of each block so
// that a churn knows which version it creates and which one it links from.
type Generator struct {
	rng     *rand.Rand
	trees   int
	classes deck  // one card per point of the mix's weights
	levels  deck  // check-in targets: 14 leaf, 5 mid, 1 root
	netV    []int // newest netlist version per (tree, block)
	scans   int
	sum     hash.Hash
	n       int
}

func NewGenerator(seed uint64, trees int, mix Mix) *Generator {
	g := &Generator{
		rng:    rand.New(rand.NewPCG(seed, 0xda30c1e5)),
		trees:  trees,
		levels: newDeck(14, 5, 1),
		netV:   make([]int, trees*blocksPerTree),
		sum:    sha256.New(),
	}
	g.SetMix(mix)
	for i := range g.netV {
		g.netV[i] = 1
	}
	return g
}

// SetMix changes the class weights of the ops generated from here on.
func (g *Generator) SetMix(mix Mix) {
	if mix.total() <= 0 {
		panic(fmt.Sprintf("mix %v has no weight", mix))
	}
	g.classes = newDeck(mix[:]...)
}

func schematic(tree, block int) meta.Key {
	return meta.Key{Block: blockName(tree, block), View: views[0], Version: 1}
}

func (g *Generator) netlist(tree, block int) meta.Key {
	return meta.Key{Block: blockName(tree, block), View: views[1], Version: g.netV[tree*blocksPerTree+block]}
}

// pickLevel draws a check-in target: 70 % leaf, 25 % mid, 5 % root.
func (g *Generator) pickLevel() (level, block int) {
	switch level = g.levels.draw(g.rng); level {
	case 0:
		return 0, firstLeaf + g.rng.IntN(blocksPerTree-firstLeaf)
	case 1:
		return 1, firstMid + g.rng.IntN(firstLeaf-firstMid)
	}
	return 2, 0
}

// Next generates the next op of the sequence.
func (g *Generator) Next() *Op {
	class := Class(g.classes.draw(g.rng))
	op := &Op{Class: class, Tree: g.rng.IntN(g.trees)}
	t := op.Tree
	switch class {
	case Post:
		var b int
		op.Sub, b = g.pickLevel()
		op.Keys = []meta.Key{schematic(t, b)}
	case Batch:
		// Eight of the nine leaves: no item is an ancestor of another, so
		// the outcome does not depend on whether a drain started by another
		// connection picks up the first items before the last are posted.
		for _, b := range g.rng.Perm(blocksPerTree - firstLeaf)[:batchSize] {
			op.Keys = append(op.Keys, schematic(t, firstLeaf+b))
		}
	case Tool:
		op.Sub = g.rng.IntN(2)
		b := g.rng.IntN(blocksPerTree)
		if op.Sub == 0 {
			op.Keys = []meta.Key{schematic(t, b)}
		} else {
			op.Keys = []meta.Key{{Block: blockName(t, b), View: views[2], Version: 1}}
		}
		op.Arg = [2]string{"good", "bad"}[g.rng.IntN(2)]
	case Churn:
		b := firstLeaf + g.rng.IntN(blocksPerTree-firstLeaf)
		prev := g.netlist(t, b)
		g.netV[t*blocksPerTree+b]++
		op.Keys = []meta.Key{g.netlist(t, b), prev}
	case State:
		// Version 1 of a chain exists on every node from the preload on; a
		// version a churn has just made may not have reached a follower.
		b, v := g.rng.IntN(blocksPerTree), g.rng.IntN(len(views))
		op.Keys = []meta.Key{{Block: blockName(t, b), View: views[v], Version: 1}}
	case Query:
		op.Sub = g.rng.IntN(2)
		if op.Sub == 0 {
			op.Keys = []meta.Key{schematic(t, 0)}
		} else {
			op.Keys = []meta.Key{schematic(t, firstLeaf+g.rng.IntN(blocksPerTree-firstLeaf))}
		}
	case Scan:
		op.Tree = -1
		op.Sub = g.scans % 4
		g.scans++
	}
	for _, req := range op.Requests(lsnArg) {
		g.sum.Write([]byte(req.Encode()))
		g.sum.Write([]byte{'\n'})
	}
	g.n++
	return op
}

// Hash is the digest of every request line generated so far.
func (g *Generator) Hash() string { return hex.EncodeToString(g.sum.Sum(nil)) }

// Preload is the request sequence that builds the T-tree project: per tree
// 39 CREATEs, then 12 use links parent→child and 26 derive links
// schematic→netlist and schematic→layout.
func Preload(trees int) []wire.Request {
	reqs := make([]wire.Request, 0, trees*(oidsPerTree+linksPerTree))
	for t := 0; t < trees; t++ {
		for b := 0; b < blocksPerTree; b++ {
			for _, v := range views {
				reqs = append(reqs, wire.Request{Verb: wire.VerbCreate, Args: []string{blockName(t, b), v}})
			}
		}
		key := func(b, v int) string {
			return meta.Key{Block: blockName(t, b), View: views[v], Version: 1}.String()
		}
		for b := 1; b < blocksPerTree; b++ {
			reqs = append(reqs, wire.Request{Verb: wire.VerbLink, Args: []string{"use", key((b-1)/3, 0), key(b, 0)}})
		}
		for b := 0; b < blocksPerTree; b++ {
			reqs = append(reqs,
				wire.Request{Verb: wire.VerbLink, Args: []string{"derive", key(b, 0), key(b, 1)}},
				wire.Request{Verb: wire.VerbLink, Args: []string{"derive", key(b, 0), key(b, 2)}})
		}
	}
	return reqs
}
