package main

import (
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mdv/internal/core"
	"mdv/internal/rdf"
	"mdv/internal/workload"
)

func TestFinalStateReplaysOpsInOrder(t *testing.T) {
	ops := []*op{
		{kind: opBatch, docN: -1, docs: []*rdf.Document{document(1, 10), document(2, 20)}},
		{kind: opUpdate, docN: 1, docs: []*rdf.Document{document(1, 11)}},
		{kind: opDelete, docN: 2, uri: docURI(2)},
		{kind: opReinsert, docN: 3, docs: []*rdf.Document{document(3, 30)}},
	}
	got := finalState(ops)
	if len(got) != 2 || got[1] != 11 || got[3] != 30 {
		t.Fatalf("final state %v, want map[1:11 3:30]", got)
	}
}

func TestCompareCacheFlagsDroppedAndStale(t *testing.T) {
	state := map[int]int{1: 4, 2: 6, 3: 8, 4: 5}
	want := expectedCaches(state, 100)
	if len(want[0]) != 6 || len(want[1]) != 2 {
		t.Fatalf("owner split: lmr0 %d lmr1 %d resources, want 6 and 2", len(want[0]), len(want[1]))
	}
	var cache []*rdf.Resource
	for _, n := range []int{1, 2, 3} {
		cache = append(cache, document(n, state[n]).Resources...)
	}
	if d := compareCache(want[0], cache); len(d) != 0 {
		t.Fatalf("exact cache flagged: %v", d)
	}
	dropped := append([]*rdf.Resource(nil), cache[1:]...) // doc1's CycleProvider gone
	if d := compareCache(want[0], dropped); len(d) != 1 || d[0] != "missing "+hostURI(1) {
		t.Errorf("dropped resource: %v", d)
	}
	stale := append([]*rdf.Resource(nil), cache...)
	stale[3] = document(2, 7).Resources[1] // doc2's ServerInformation with an old memory value
	if d := compareCache(want[0], stale); len(d) != 1 || d[0] != "stale "+docURI(2)+"#info" {
		t.Errorf("stale resource: %v", d)
	}
	extra := append(append([]*rdf.Resource(nil), cache...), document(4, 5).Resources[0])
	if d := compareCache(want[0], extra); len(d) != 1 || !strings.HasPrefix(d[0], "unexpected ") {
		t.Errorf("resource of the other LMR: %v", d)
	}
}

// TestOracleOnLiveCaches boots a small system, checks that the oracle
// accepts its caches, then tampers with one LMR's cache and checks that
// each tampered resource is reported.
func TestOracleOnLiveCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("boots an MDP and two LMRs")
	}
	s := &spec{name: "oracle-test", rules: ruleBase(workload.PATH, 20)}
	pre := &op{kind: opBatch, docN: -1}
	state := map[int]int{}
	for n := 0; n < 10; n++ {
		pre.docs = append(pre.docs, document(n, n))
		pre.expects = append(pre.expects, insertOf(n, n))
		state[n] = n
	}
	s.preload = []*op{pre}
	s.queries = queryCycle(rand.New(rand.NewSource(1)), 10, 20)
	sys, err := boot(filepath.Join(t.TempDir(), "data"), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	check := func() []string {
		t.Helper()
		d, err := sys.checkCaches(state, len(s.rules))
		if err != nil {
			t.Fatal(err)
		}
		q, err := sys.checkQueries(state, len(s.rules))
		if err != nil {
			t.Fatal(err)
		}
		return append(d, q...)
	}
	if d := check(); len(d) != 0 {
		t.Fatalf("untouched caches flagged: %v", d)
	}
	repo := sys.nodes[0].Repository()
	// Stale: doc 2's resources overwritten with another memory value.
	if err := repo.RegisterLocalDocument(document(2, 12)); err != nil {
		t.Fatal(err)
	}
	// Dropped: doc 4's CycleProvider removed from the cache.
	if err := repo.RegisterLocalDocument(document(4, 4)); err != nil {
		t.Fatal(err)
	}
	if err := repo.DeleteLocalResource(hostURI(4)); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(check(), "\n")
	for _, want := range []string{"lmr0: stale " + docURI(2) + "#info", "lmr0: missing " + hostURI(4),
		"lmr0 query: missing " + hostURI(4)} {
		if !strings.Contains(got, want) {
			t.Errorf("mismatches do not report %q:\n%s", want, got)
		}
	}
}

func TestTrackerMatchesMovesAndIgnoresOtherMembers(t *testing.T) {
	tr := newTracker()
	// An update moving doc 7 from memory 4 (lmr0) to memory 5 (lmr1).
	o := &op{kind: opUpdate, docN: 7, docs: []*rdf.Document{document(7, 5)},
		expects: []expectation{insertOf(7, 5), {lmr: 0, uri: hostURI(7), gone: true}}}
	run := newRun(o)
	tr.expect(run)
	up := core.Upsert{Resource: document(7, 5).Resources[0], SubIDs: []int64{50},
		Closure: []*rdf.Resource{document(7, 5).Resources[1]}}
	stale := core.Upsert{Resource: document(7, 4).Resources[0], SubIDs: []int64{50},
		Closure: []*rdf.Resource{document(7, 4).Resources[1]}}
	// The old version arriving at lmr1 does not count.
	if got := tr.applied(1, &core.Changeset{Upserts: []core.Upsert{stale}}, time.Now()); len(got) != 0 {
		t.Fatalf("old version advanced the op")
	}
	// A shared changeset whose removal belongs to lmr1 does not count at lmr0.
	shared := &core.Changeset{Removals: []core.Removal{{URIRef: hostURI(7), SubID: 9}},
		MemberCredits: map[string][]int64{"lmr0": {4}, "lmr1": {9}}}
	if got := tr.applied(0, shared, time.Now()); len(got) != 0 {
		t.Fatalf("another member's removal advanced the op")
	}
	tr.applied(1, &core.Changeset{Upserts: []core.Upsert{up}}, time.Now())
	select {
	case <-run.done:
		t.Fatal("op done before its removal at the old owner")
	default:
	}
	at := time.Now()
	tr.applied(0, &core.Changeset{Removals: []core.Removal{{URIRef: hostURI(7), SubID: 4}}}, at)
	if done, ok := tr.completedAt(run); !ok || !done.Equal(at) {
		t.Fatalf("op not completed at the removal: %v %v", done, ok)
	}
	if len(tr.waiting) != 0 {
		t.Fatalf("expectations left: %v", tr.waiting)
	}
}
