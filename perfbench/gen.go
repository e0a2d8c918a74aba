package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mdv/internal/rdf"
	"mdv/internal/workload"
)

// opKind is what one generated operation does at the MDP.
type opKind int

const (
	opInsert   opKind = iota // register a document that is not stored
	opUpdate                 // re-register a stored document with a new memory value
	opDelete                 // delete a stored document
	opReinsert               // register a previously deleted document again
	opBatch                  // register a batch of new documents
)

var opNames = [...]string{"insert", "update", "delete", "reinsert", "batch"}

func (k opKind) String() string { return opNames[k] }

// expectation is one effect an operation must have on one LMR's cache
// before the operation counts as propagated: the CycleProvider uri arrives
// there carrying the given memory value, or (gone) leaves it.
type expectation struct {
	lmr    int
	uri    string
	gone   bool
	memory int
}

// op is one generated write. Everything is decided before the timed
// window: documents are built, expectations derived and the previous op
// on the same document linked, so the timed loop only sends.
type op struct {
	n       int
	kind    opKind
	due     time.Duration // open loop: offset from the window start
	docs    []*rdf.Document
	uri     string // opDelete: the document URI
	expects []expectation
	// prev is the previous op on the same document, whose propagation
	// this one waits for so that a document's effects arrive in order.
	prev *op
	docN int    // document number (-1 for batches)
	run  *opRun // set when the op is scheduled
}

// spec is one workload's complete input, derived from the seed.
type spec struct {
	name    string
	rules   []string // rule i belongs to LMR i mod 2
	preload []*op    // batches registered during set-up
	warmup  []*op
	ops     []*op
	rate    float64 // open-loop ops/s; 0 for a closed loop
	queries []string
	reader  bool // a closed-loop reader runs during the timed window
	// bestWindow reports each end-to-end metric from the best of the
	// run's windows instead of the median one (see pickWindow).
	bestWindow bool
	params     map[string]any
}

// Workload sizes. The open-loop rate sits at about a third of the
// closed-loop capacity measured on a 2-vCPU machine (see README.md).
const (
	pathRules       = 10000
	joinRules       = 5000
	joinBatch       = 100
	churnRules      = 1000
	churnDocs       = 1000
	openRate        = 25.0
	warmupOps       = 25
	warmupBatches   = 3
	batchCapPerSec  = 16 // closed-loop batches generated per second of window (capacity is about 10)
	churnTouchGap   = 100
	lmrCount        = 2
	preloadBatchLen = 100
)

// dueAt is the open-loop schedule: op i is due i/openRate after the start.
func dueAt(i int) time.Duration {
	return time.Duration(float64(i) / openRate * float64(time.Second))
}

// ownerOf is the LMR whose rule matches a document with this memory value
// (rule i is subscribed by LMR i mod 2 and matches memory i mod ruleCount).
func ownerOf(memory int) int { return memory % lmrCount }

// document builds one Figure 1 document: a CycleProvider with a strong
// reference to its ServerInformation. The host name carries the
// 'uni-passau.de' suffix and cpu is 600, so JOIN rules reduce to their
// memory clause, as in workload.Generator.
func document(n, memory int) *rdf.Document {
	doc := rdf.NewDocument(docURI(n))
	host := doc.NewResource("host", "CycleProvider")
	host.Add("serverHost", rdf.Lit(fmt.Sprintf("host%d.uni-passau.de", n)))
	host.Add("serverPort", rdf.Lit("5874"))
	host.Add("synthValue", rdf.Lit("0"))
	host.Add("serverInformation", rdf.Ref(doc.QualifyID("info")))
	info := doc.NewResource("info", "ServerInformation")
	info.Add("memory", rdf.Lit(fmt.Sprint(memory)))
	info.Add("cpu", rdf.Lit("600"))
	return doc
}

func docURI(n int) string  { return fmt.Sprintf("doc%d.rdf", n) }
func hostURI(n int) string { return docURI(n) + "#host" }
func insertOf(n, memory int) expectation {
	return expectation{lmr: ownerOf(memory), uri: hostURI(n), memory: memory}
}

// ruleBase lists rule texts 0..n-1 of a workload rule type.
func ruleBase(t workload.RuleType, n int) []string {
	return workload.Generator{Type: t, RuleBase: n}.Rules()
}

// buildSpec derives a workload's inputs from the seed. window is the
// length of one timed window; it sizes the op stream.
func buildSpec(name string, seed int64, window time.Duration) (*spec, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "single-path":
		return singlePath(rng, window), nil
	case "batch-join":
		return batchJoin(rng, window), nil
	case "churn-query":
		return churnQuery(rng, window), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want single-path, batch-join or churn-query)", name)
}

// singlePath: open loop, one new document per op over a 10,000-rule PATH
// base; document k is matched by exactly one rule, drawn without
// replacement from the seed.
func singlePath(rng *rand.Rand, window time.Duration) *spec {
	s := &spec{name: "single-path", rules: ruleBase(workload.PATH, pathRules),
		rate: openRate, bestWindow: true}
	n := int(openRate * window.Seconds())
	perm := rng.Perm(pathRules)
	mk := func(i, k int) *op {
		m := perm[k%pathRules]
		return &op{n: i, kind: opInsert, docN: k, docs: []*rdf.Document{document(k, m)},
			expects: []expectation{insertOf(k, m)}}
	}
	for i := 0; i < warmupOps; i++ {
		o := mk(i, i)
		o.due = dueAt(i)
		s.warmup = append(s.warmup, o)
	}
	for i := 0; i < n; i++ {
		o := mk(i, warmupOps+i)
		o.due = dueAt(i)
		s.ops = append(s.ops, o)
	}
	s.queries = queryCycle(rng, warmupOps+n, pathRules)
	s.params = map[string]any{"rules": pathRules, "rule_type": "PATH", "loop": "open",
		"rate_ops_per_s": openRate, "docs_per_op": 1, "ops": n, "warmup_ops": warmupOps}
	return s
}

// batchJoin: closed loop, one writer, batches of 100 new documents over a
// 5,000-rule JOIN base. Document k carries memory (offset + k) mod 5000,
// so consecutive documents walk the rule base from a seeded start.
func batchJoin(rng *rand.Rand, window time.Duration) *spec {
	s := &spec{name: "batch-join", rules: ruleBase(workload.JOIN, joinRules)}
	offset := rng.Intn(joinRules)
	k := 0
	mk := func(i int) *op {
		o := &op{n: i, kind: opBatch, docN: -1}
		for j := 0; j < joinBatch; j++ {
			m := (offset + k) % joinRules
			o.docs = append(o.docs, document(k, m))
			o.expects = append(o.expects, insertOf(k, m))
			k++
		}
		return o
	}
	for i := 0; i < warmupBatches; i++ {
		s.warmup = append(s.warmup, mk(i))
	}
	for i := 0; i < int(math.Ceil(batchCapPerSec*window.Seconds())); i++ {
		s.ops = append(s.ops, mk(i))
	}
	s.queries = queryCycle(rng, k, joinRules)
	s.params = map[string]any{"rules": joinRules, "rule_type": "JOIN", "loop": "closed",
		"writers": 1, "docs_per_op": joinBatch, "ops_generated": len(s.ops), "warmup_ops": warmupBatches,
		"memory_offset": offset}
	return s
}

// churnQuery: 1,000 preloaded documents over 1,000 PATH rules, then an
// open loop of updates (70%), deletes (15%) and re-inserts (15%) beside a
// closed-loop reader. A document is not touched again within
// churnTouchGap ops, so its previous op has normally propagated.
func churnQuery(rng *rand.Rand, window time.Duration) *spec {
	s := &spec{name: "churn-query", rules: ruleBase(workload.PATH, churnRules),
		rate: openRate}
	memory := make([]int, churnDocs) // -1 = deleted
	perm := rng.Perm(churnRules)
	for k := 0; k < churnDocs; k++ {
		if k%preloadBatchLen == 0 {
			s.preload = append(s.preload, &op{kind: opBatch, docN: -1})
		}
		b := s.preload[len(s.preload)-1]
		memory[k] = perm[k]
		b.docs = append(b.docs, document(k, memory[k]))
		b.expects = append(b.expects, insertOf(k, memory[k]))
	}
	lastTouch := make([]int, churnDocs)
	for k := range lastTouch {
		lastTouch[k] = -churnTouchGap
	}
	last := make([]*op, churnDocs)
	newMemory := func(old int) int {
		m := rng.Intn(churnRules - 1)
		if m >= old {
			m++
		}
		return m
	}
	// pick draws a document in the wanted state not touched recently.
	pick := func(i int, alive bool) int {
		for tries := 0; tries < 64; tries++ {
			k := rng.Intn(churnDocs)
			if (memory[k] >= 0) == alive && i-lastTouch[k] >= churnTouchGap {
				return k
			}
		}
		for k := 0; k < churnDocs; k++ {
			if (memory[k] >= 0) == alive && i-lastTouch[k] >= churnTouchGap {
				return k
			}
		}
		return -1
	}
	mk := func(i int) *op {
		kind := opUpdate
		switch r := rng.Float64(); {
		case r < 0.15:
			kind = opDelete
		case r < 0.30:
			kind = opReinsert
		}
		k := -1
		if kind == opReinsert {
			if k = pick(i, false); k < 0 {
				kind = opUpdate
			}
		}
		if k < 0 {
			k = pick(i, true)
		}
		o := &op{n: i, kind: kind, docN: k, prev: last[k]}
		old := memory[k]
		switch kind {
		case opUpdate:
			m := newMemory(old)
			o.docs = []*rdf.Document{document(k, m)}
			o.expects = []expectation{insertOf(k, m)}
			if ownerOf(m) != ownerOf(old) {
				o.expects = append(o.expects, expectation{lmr: ownerOf(old), uri: hostURI(k), gone: true})
			}
			memory[k] = m
		case opDelete:
			o.uri = docURI(k)
			o.expects = []expectation{{lmr: ownerOf(old), uri: hostURI(k), gone: true}}
			memory[k] = -1
		case opReinsert:
			m := rng.Intn(churnRules)
			o.docs = []*rdf.Document{document(k, m)}
			o.expects = []expectation{insertOf(k, m)}
			memory[k] = m
		}
		lastTouch[k] = i
		last[k] = o
		return o
	}
	n := int(openRate * window.Seconds())
	for i := 0; i < warmupOps+n; i++ {
		o := mk(i)
		if i < warmupOps {
			o.due = dueAt(i)
			s.warmup = append(s.warmup, o)
			continue
		}
		o.n = i - warmupOps
		o.due = dueAt(o.n)
		s.ops = append(s.ops, o)
	}
	s.queries, s.reader = queryCycle(rng, churnDocs, churnRules), true
	s.params = map[string]any{"rules": churnRules, "rule_type": "PATH", "loop": "open",
		"rate_ops_per_s": openRate, "preload_docs": churnDocs, "ops": n, "warmup_ops": warmupOps,
		"mix": "70% update, 15% delete, 15% reinsert", "touch_gap_ops": churnTouchGap,
		"reader":        "closed loop, 1 client, shapes point/contains/compare/path, LMRs alternating",
		"query_mix_len": len(s.queries)}
	return s
}

// queryShapes names the reader's four query shapes in cycle order.
var queryShapes = [...]string{"point", "contains", "compare", "path"}

// queryCycle draws the reader's query cycle: for each round, one query of
// every shape, with constants drawn over the workload's documents and
// memory values.
func queryCycle(rng *rand.Rand, docs, memories int) []string {
	const rounds = 256
	out := make([]string, 0, rounds*len(queryShapes))
	for i := 0; i < rounds; i++ {
		out = append(out,
			fmt.Sprintf(`search CycleProvider c register c where c = '%s'`, hostURI(rng.Intn(docs))),
			fmt.Sprintf(`search CycleProvider c register c where c.serverHost contains 'host%d.'`, rng.Intn(docs)),
			`search CycleProvider c register c where c.serverPort >= 0`,
			fmt.Sprintf(`search CycleProvider c register c where c.serverInformation.memory = %d`, rng.Intn(memories)),
		)
	}
	return out
}
