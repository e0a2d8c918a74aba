package core_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mdv/internal/core"
	"mdv/internal/rdb/sql"
	"mdv/internal/rdf"
	"mdv/internal/workload"
)

// The golden hot-path plan audit. The SQL planner joins in FROM order and
// never reorders (internal/rdb/sql/plan.go), so a filter statement that
// lists a large table before its small driving input scans the large table
// on every execution. This test runs register, update and delete publishes
// over 10,000-rule bases of every workload rule type, EXPLAINs every
// statement those publishes executed (the database's statement cache lists
// them with their run counts), and
//
//   - fails if any of them full-scans a table other than the per-run
//     scratch tables FilterData and ResultObjects, whose size is the
//     publish's own input, and
//   - compares the plans with testdata/hot_path_plans.json, so any plan
//     change shows up in review.
//
// Regenerate the golden file after an intended plan change with
//
//	go test ./internal/core -run TestHotPathPlanAudit -update-plans

var updatePlans = flag.Bool("update-plans", false, "rewrite testdata/hot_path_plans.json")

const planGolden = "testdata/hot_path_plans.json"

// auditRuleBase is the rule-base size of every audited workload: large
// enough that a rule-base-sized scan would dominate a publish.
const auditRuleBase = 10000

// scratchTables may be full-scanned: they hold one run's input atoms and
// one iteration's delta, never the rule base or the document set.
var scratchTables = map[string]bool{"FilterData": true, "ResultObjects": true}

// auditStep is one row of EXPLAIN.
type auditStep struct {
	Table  string `json:"table"`
	Alias  string `json:"alias"`
	Access string `json:"access"`
	Index  string `json:"index,omitempty"`
	Key    string `json:"key,omitempty"`
}

// auditEntry is one statement the audited publishes executed.
type auditEntry struct {
	Statement string      `json:"statement"`
	Workloads []string    `json:"workloads"`
	Plan      []auditStep `json:"plan,omitempty"` // empty for INSERT ... VALUES
}

func TestHotPathPlanAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds five 10,000-rule bases")
	}
	entries := map[string]*auditEntry{}
	for _, typ := range []workload.RuleType{workload.PATH, workload.JOIN, workload.COMP, workload.OID, workload.TEXT} {
		g := workload.Generator{Type: typ, RuleBase: auditRuleBase, MatchPercent: 0.1}
		for _, text := range hotPathStatements(t, g) {
			key := strings.Join(strings.Fields(text), " ")
			ent := entries[key]
			if ent == nil {
				ent = &auditEntry{Statement: key}
				entries[key] = ent
			}
			ent.Workloads = append(ent.Workloads, typ.String())
		}
	}

	var got []*auditEntry
	for _, ent := range entries {
		got = append(got, ent)
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Statement < got[j].Statement })
	explainDB := auditEngine(t).DB() // same schema, empty tables
	for _, ent := range got {
		ent.Plan = explainPlan(t, explainDB, ent.Statement)
		for _, st := range ent.Plan {
			if st.Access == "full_scan" && !scratchTables[st.Table] {
				t.Errorf("hot-path statement full-scans %s (%s): %s", st.Table, strings.Join(ent.Workloads, ","), ent.Statement)
			}
		}
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')

	if *updatePlans {
		if err := os.MkdirAll(filepath.Dir(planGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(planGolden, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(planGolden)
	if err != nil {
		t.Fatalf("read golden plans (regenerate with -update-plans): %v", err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("hot-path plans differ from %s; review the change and regenerate with -update-plans:\n%s",
			planGolden, lineDiff(string(want), string(out)))
	}
}

func auditEngine(t *testing.T) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(workload.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// hotPathStatements loads g's rule base, then registers, updates and
// deletes documents, and returns the text of every statement the publishes
// executed.
func hotPathStatements(t *testing.T, g workload.Generator) []string {
	t.Helper()
	e := auditEngine(t)
	for i := 0; i < g.RuleBase; i++ {
		if _, _, err := e.Subscribe(fmt.Sprintf("lmr%d", i%2), g.Rule(i)); err != nil {
			t.Fatalf("%s rule %d: %v", g.Type, i, err)
		}
	}
	before := runCounts(e.DB())

	if _, err := e.RegisterDocuments(g.Batch(0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterDocuments(g.Batch(1, 10)); err != nil {
		t.Fatal(err)
	}
	// Update: document 1 takes document 20's contents under its own URI,
	// so the old version loses its matches and the new one gains others.
	upd := g.Document(1)
	next := g.Document(20)
	for _, r := range upd.Resources {
		local := strings.TrimPrefix(r.URIRef, upd.URI+"#")
		src, ok := next.Find(next.QualifyID(local))
		if !ok {
			t.Fatalf("no resource %s in %s", local, next.URI)
		}
		for _, p := range src.Props {
			if p.Value.Kind == rdf.Literal {
				r.Set(p.Name, p.Value)
			}
		}
	}
	if _, err := e.RegisterDocument(upd); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeleteDocument(g.Document(2).URI); err != nil {
		t.Fatal(err)
	}

	var ran []string
	cached := e.DB().CachedStatements()
	if len(cached) >= sql.StatementCacheSize {
		t.Fatalf("statement cache full (%d entries): evictions could hide executed statements", len(cached))
	}
	for _, c := range cached {
		if c.Runs > before[c.Text] {
			ran = append(ran, c.Text)
		}
	}
	return ran
}

func runCounts(db *sql.DB) map[string]uint64 {
	m := map[string]uint64{}
	for _, c := range db.CachedStatements() {
		m[c.Text] = c.Runs
	}
	return m
}

// explainPlan returns EXPLAIN's rows for a SELECT, UPDATE or DELETE, and no
// steps for an INSERT ... VALUES, which reads no table.
func explainPlan(t *testing.T, db *sql.DB, text string) []auditStep {
	t.Helper()
	st, err := sql.Parse(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	if ins, ok := st.(*sql.InsertStmt); ok && ins.Select == nil {
		return nil
	}
	rows, err := db.Query("EXPLAIN " + text)
	if err != nil {
		t.Fatalf("EXPLAIN %q: %v", text, err)
	}
	steps := make([]auditStep, len(rows.Data))
	for i, r := range rows.Data {
		steps[i] = auditStep{Table: r[1].Str, Alias: r[2].Str, Access: r[3].Str, Index: r[4].Str, Key: r[5].Str}
	}
	return steps
}

// lineDiff lists the lines only one side has, for a readable failure.
func lineDiff(want, got string) string {
	count := func(s string) map[string]int {
		m := map[string]int{}
		for _, l := range strings.Split(s, "\n") {
			m[l]++
		}
		return m
	}
	w, g := count(want), count(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if g[l] < w[l] {
			fmt.Fprintf(&b, "- %s\n", l)
			w[l]--
		}
	}
	w = count(want)
	for _, l := range strings.Split(got, "\n") {
		if w[l] < g[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
			g[l]--
		}
	}
	return b.String()
}
