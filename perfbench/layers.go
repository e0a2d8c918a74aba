package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"mdv/internal/changelog"
	"mdv/internal/core"
	"mdv/internal/metrics"
	"mdv/internal/rdf"
	"mdv/internal/repository"
	"mdv/internal/rules"
	"mdv/internal/wire"
	"mdv/internal/workload"
)

// tailOps is how many updates and deletes the layer replay adds after a
// stream that has none, so every workload reports their cost.
const tailOps = 30

// layerReplay drives the traced run's op stream straight through each
// inner layer's public functions, timing every call: rules, core (with
// its own SQL counters), changelog, wire and a standalone repository per
// LMR.
type layerReplay struct {
	eng   *core.Engine
	reg   *metrics.Registry
	log   *changelog.Log
	repos [lmrCount]*repository.Repository

	parse, subscribe         dist
	register, update, delete dist
	appendT, durable         dist
	encode, decode           dist
	upsertApply, removeApply float64 // ms, over pushes carrying only that kind
	upserts, removals        int
	logBytes, frameBytes     int
}

// logRecord has the shape of the provider's changelog records, so the
// replayed records are of the workload's size.
type logRecord struct {
	Kind        string          `json:"kind"`
	Docs        []wire.Doc      `json:"docs,omitempty"`
	URI         string          `json:"uri,omitempty"`
	Subscribers []string        `json:"subscribers,omitempty"`
	Changeset   *core.Changeset `json:"changeset,omitempty"`
}

func newLayerReplay(dir string) (*layerReplay, error) {
	schema := workload.Schema()
	r := &layerReplay{reg: metrics.NewRegistry()}
	var err error
	if r.eng, err = core.NewEngine(schema); err != nil {
		return nil, err
	}
	r.eng.DB().EnableMetrics(r.reg)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if r.log, err = changelog.Open(dir, changelog.Options{Sync: syncPolicy}); err != nil {
		return nil, err
	}
	for i := range r.repos {
		if r.repos[i], err = repository.New("lmr"+strconv.Itoa(i), schema); err != nil {
			r.log.Close()
			return nil, err
		}
	}
	return r, nil
}

// subscribeAll parses, normalises and subscribes every rule, rule i for
// LMR i mod 2, as the MDP does on the LMRs' behalf.
func (r *layerReplay) subscribeAll(ruleTexts []string) error {
	schema := r.eng.Schema()
	for i, text := range ruleTexts {
		t0 := time.Now()
		parsed, err := rules.Parse(text)
		if err == nil {
			_, err = rules.Normalize(parsed, schema, nil)
		}
		r.parse.add(time.Since(t0))
		if err != nil {
			return fmt.Errorf("rule %d: %w", i, err)
		}
		t0 = time.Now()
		_, _, err = r.eng.Subscribe("lmr"+strconv.Itoa(i%lmrCount), text)
		r.subscribe.add(time.Since(t0))
		if err != nil {
			return fmt.Errorf("subscribe rule %d: %w", i, err)
		}
	}
	return nil
}

// step applies one op through every layer; timed ops are recorded.
func (r *layerReplay) step(o *op, timed bool) error {
	t0 := time.Now()
	var ps *core.PublishSet
	var err error
	rec := &logRecord{Kind: "register"}
	if o.kind == opDelete {
		rec = &logRecord{Kind: "delete", URI: o.uri}
		ps, err = r.eng.DeleteDocument(o.uri)
	} else {
		for _, d := range o.docs {
			rec.Docs = append(rec.Docs, wire.Doc{URI: d.URI, XML: rdf.DocumentString(d)})
		}
		ps, err = r.eng.RegisterDocuments(o.docs)
	}
	if err != nil {
		return fmt.Errorf("core %s: %w", o.kind, err)
	}
	if timed {
		switch o.kind {
		case opUpdate:
			r.update.add(time.Since(t0))
		case opDelete:
			r.delete.add(time.Since(t0))
		default:
			r.register.add(time.Since(t0))
		}
	}

	groups := ps.GroupList()
	records := []*logRecord{rec}
	for _, g := range groups {
		records = append(records, &logRecord{Kind: "pub_group", Subscribers: g.Members, Changeset: g.Changeset})
	}
	var seqs []uint64
	for _, rc := range records {
		payload, err := json.Marshal(rc)
		if err != nil {
			return err
		}
		t := time.Now()
		seq, err := r.log.Append(payload)
		if err != nil {
			return fmt.Errorf("changelog append: %w", err)
		}
		seqs = append(seqs, seq)
		if timed {
			r.appendT.add(time.Since(t))
			r.logBytes += len(payload)
		}
	}
	t := time.Now()
	if err := r.log.WaitDurable(seqs[len(seqs)-1]); err != nil {
		return fmt.Errorf("changelog durable: %w", err)
	}
	if timed {
		r.durable.add(time.Since(t))
	}

	for gi, g := range groups {
		t := time.Now()
		body, err := json.Marshal(&wire.ChangesetPush{Seq: seqs[gi+1], Changeset: g.Changeset, PubUnixNano: t.UnixNano()})
		if err != nil {
			return err
		}
		frame, err := wire.EncodeMessage(&wire.Message{Kind: wire.KindChangeset, Body: body})
		if err != nil {
			return err
		}
		if timed {
			r.encode.add(time.Since(t))
			r.frameBytes += len(frame)
		}
		for _, member := range g.Members {
			t := time.Now()
			m, err := wire.ReadMessage(bytes.NewReader(frame))
			if err != nil {
				return err
			}
			var push wire.ChangesetPush
			if err := json.Unmarshal(m.Body, &push); err != nil {
				return err
			}
			if timed {
				r.decode.add(time.Since(t))
			}
			l, err := strconv.Atoi(strings.TrimPrefix(member, "lmr"))
			if err != nil || l < 0 || l >= lmrCount {
				return fmt.Errorf("unexpected subscriber %q", member)
			}
			t = time.Now()
			if err := r.repos[l].ApplyPush(push.Seq, false, push.Changeset); err != nil {
				return fmt.Errorf("repository apply: %w", err)
			}
			if timed {
				r.classifyApply(push.Changeset, time.Since(t))
			}
		}
	}
	return nil
}

// classifyApply attributes an apply's time to upserts or removals when
// the changeset carries only one kind.
func (r *layerReplay) classifyApply(cs *core.Changeset, d time.Duration) {
	ups := len(cs.Upserts) + len(cs.ClosureUpserts)
	rems := len(cs.Removals) + len(cs.ForcedDeletes)
	ms := float64(d) / float64(time.Millisecond)
	switch {
	case ups > 0 && rems == 0:
		r.upsertApply += ms
		r.upserts += ups
	case rems > 0 && ups == 0:
		r.removeApply += ms
		r.removals += rems
	}
}

func (r *layerReplay) close() {
	r.log.Close()
}

// counter reads one SQL counter of the replay engine.
func (r *layerReplay) counter(name string, l metrics.Label) float64 {
	return float64(r.reg.Counter(name, "", l).Value())
}

func (r *layerReplay) statements() float64 {
	var n float64
	for _, op := range []string{"select", "insert", "update", "delete", "ddl"} {
		n += r.counter("mdv_sql_statements_total", metrics.L("op", op))
	}
	return n
}

// tail builds updates and deletes of documents the stream wrote, for a
// stream that has none.
func tail(acked []*op, ruleCount int) []*op {
	state := finalState(acked)
	var docs []int
	for n := range state {
		docs = append(docs, n)
	}
	sort.Ints(docs)
	var out []*op
	for i := 0; i < tailOps && i < len(docs); i++ {
		n := docs[i]
		out = append(out, &op{kind: opUpdate, docN: n, docs: []*rdf.Document{document(n, (state[n]+1)%ruleCount)}})
	}
	for i := tailOps; i < 2*tailOps && i < len(docs); i++ {
		out = append(out, &op{kind: opDelete, docN: docs[i], uri: docURI(docs[i])})
	}
	return out
}

// perLayer runs the layer replay over the traced window's op stream and
// fills the per-layer metrics from it, the traced window's spans, and
// the untraced reference window.
func perLayer(res *result, s *spec, traced, untraced *outcome, tr *tracer, dataDir string) error {
	r, err := newLayerReplay(filepath.Join(dataDir, "replay-wal"))
	if err != nil {
		return err
	}
	defer r.close()
	if err := r.subscribeAll(s.rules); err != nil {
		return err
	}
	acked := append(append([]*op(nil), s.preload...), s.warmup...)
	for _, o := range acked {
		if err := r.step(o, false); err != nil {
			return err
		}
	}
	var window []*op
	var docs int
	for _, run := range traced.w.runs {
		if run.err == nil {
			window = append(window, run.op)
			docs += run.op.docCount()
		}
	}
	stats0 := r.eng.Stats()
	stmts0 := r.statements()
	scans0 := r.counter("mdv_sql_access_paths_total", metrics.L("path", "full_scan"))
	syncs0 := r.log.SyncCount()
	for _, o := range window {
		if err := r.step(o, true); err != nil {
			return err
		}
	}
	ops := float64(len(window))
	stats := r.eng.Stats()
	stmts := r.statements() - stmts0
	scans := r.counter("mdv_sql_access_paths_total", metrics.L("path", "full_scan")) - scans0
	syncs := float64(r.log.SyncCount() - syncs0)
	logBytes, frameBytes := r.logBytes, r.frameBytes
	tailNote := ""
	if len(r.update) == 0 || len(r.delete) == 0 {
		for _, o := range tail(append(acked, window...), len(s.rules)) {
			if err := r.step(o, true); err != nil {
				return err
			}
		}
		tailNote = fmt.Sprintf("from %d updates and %d deletes replayed after the stream (it has none)", tailOps, tailOps)
	}
	planHits := r.counter("mdv_sql_plan_cache_total", metrics.L("result", "hit"))
	planMiss := r.counter("mdv_sql_plan_cache_total", metrics.L("result", "miss"))

	var pl report
	us := func(name string, d dist) {
		p := d.percentile(0.5)
		pl.add(metric{Name: name, Value: p.Value * 1000, Unit: "us", N: p.N, Insufficient: !p.Sufficient})
	}
	perOp := func(name string, v float64) { pl.ratioMetric(name, "count", v, ops) }
	meanUS := func(name string, d dist) { pl.ratioMetric(name, "us", d.sum()*1000, float64(len(d))) }

	// core
	pl.pctMetric("core.register_p50_ms", "ms", r.register, 0.5)
	perOp("core.filter_iterations_per_op", float64(stats.FilterIterations-stats0.FilterIterations))
	perOp("core.triggering_matches_per_op", float64(stats.TriggeringMatches-stats0.TriggeringMatches))
	perOp("core.join_evaluations_per_op", float64(stats.JoinEvaluations-stats0.JoinEvaluations))
	perOp("core.upserts_built_per_op", float64(stats.UpsertsBuilt-stats0.UpsertsBuilt))
	pl.pctMetric("core.update_p50_ms", "ms", r.update, 0.5)
	pl.pctMetric("core.delete_p50_ms", "ms", r.delete, 0.5)
	if tailNote != "" {
		for i := len(pl.list) - 2; i < len(pl.list); i++ {
			pl.list[i].Note = tailNote
		}
	}
	us("core.subscribe_p50_us", r.subscribe)
	// rdb
	perOp("rdb.full_scans_per_op", scans)
	perOp("rdb.statements_per_op", stmts)
	pl.ratioMetric("rdb.plan_cache_miss_ratio", "ratio", planMiss, planHits+planMiss)
	pl.list[len(pl.list)-1].Note = "over the whole replay, rule load included"
	// rules
	us("rules.parse_normalize_us", r.parse)
	// changelog
	us("changelog.append_us", r.appendT)
	us("changelog.durable_p50_us", r.durable)
	perOp("changelog.fsyncs_per_op", syncs)
	pl.ratioMetric("changelog.bytes_per_doc", "bytes", float64(logBytes), float64(docs))
	// provider (derived)
	writes := dist{}
	for _, run := range traced.w.runs {
		if run.err == nil {
			writes.add(run.ack.Sub(run.sent))
		}
	}
	coreOps := append(append(append(dist{}, r.register...), r.update...), r.delete...)
	self := writes.percentile(0.5).Value - coreOps.percentile(0.5).Value - r.durable.percentile(0.5).Value
	pl.add(metric{Name: "provider.self_p50_ms", Value: self, Unit: "ms", N: len(writes),
		Note: "derived: write call p50 - core op p50 (replay) - changelog durable p50 (replay)"})
	// wire
	meanUS("wire.encode_us_per_push", r.encode)
	meanUS("wire.decode_us_per_push", r.decode)
	pl.ratioMetric("wire.frame_bytes_per_doc", "bytes", float64(frameBytes), float64(docs))
	// lmr
	apply, wait, pushBytes := tr.pushStats(traced.w.start, traced.w.drained)
	pl.pctMetric("lmr.push_wait_p50_ms", "ms", wait, 0.5)
	pl.pctMetric("lmr.apply_p50_ms", "ms", apply, 0.5)
	pl.pctMetric("lmr.apply_p99_ms", "ms", apply, 0.99)
	pl.ratioMetric("lmr.push_bytes_per_doc", "bytes", float64(pushBytes), float64(docs))
	pl.pctMetric("lmr.subscribe_p50_ms", "ms", tr.durations("lmr.subscribe"), 0.5)
	// repository
	pl.ratioMetric("repository.apply_us_per_upsert", "us", r.upsertApply*1000, float64(r.upserts))
	pl.ratioMetric("repository.apply_us_per_removal", "us", r.removeApply*1000, float64(r.removals))
	if tailNote != "" {
		pl.list[len(pl.list)-1].Note = tailNote
	}
	// query
	for i, shape := range queryShapes {
		pl.pctMetric("query."+shape+"_p50_ms", "ms", traced.w.probe.queries[i], 0.5)
		pl.list[len(pl.list)-1].Note = "idle-cache probe after the window"
		if len(traced.w.probe.queries[i]) == 0 {
			pl.list[len(pl.list)-1].Note = "not measured: cache past the probe's path-query limit"
		}
	}
	// Go runtime, from the untraced window
	rt := untraced.w.rt
	udocs := float64(untraced.docs)
	pl.ratioMetric("runtime.gc_cpu_fraction", "ratio", rt.gcCPU, rt.totalCPU)
	pl.ratioMetric("runtime.alloc_kb_per_doc", "KB", rt.allocBytes/1024, udocs)
	pl.ratioMetric("runtime.gc_cycles_per_kdoc", "count", rt.gcCycles*1000, udocs)
	// harness
	pl.pctMetric("harness.gen_late_p99_ms", "ms", untraced.late, 0.99)
	pl.pctMetric("harness.propagation_p99_ms", "ms", untraced.prop, 0.99)
	tcpu := float64(traced.w.cpu) / float64(traced.docs)
	ucpu := float64(untraced.w.cpu) / udocs
	pl.add(metric{Name: "harness.trace_overhead_pct", Value: (tcpu/ucpu - 1) * 100, Unit: "%", N: traced.docs,
		Note: "cpu_ms_per_doc of the traced window over the untraced one, same seed"})

	res.PerLayer = pl.list
	// A traced run is checked like an untraced one: its own window's
	// failures and oracle mismatches count too.
	res.FailedBy["traced_write_error"] = traced.writeErrs
	res.FailedBy["traced_apply_deadline_missed"] = traced.overdue
	res.FailedBy["traced_oracle_mismatch"] = len(traced.mismatches)
	res.Failed += traced.writeErrs + traced.overdue + len(traced.mismatches)
	res.Attempted += len(traced.w.runs)
	res.Mismatches = append(res.Mismatches, traced.mismatches...)
	if len(traced.mismatches) > 0 {
		res.Correct = false
	}
	return nil
}
