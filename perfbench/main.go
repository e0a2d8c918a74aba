// Command perfbench is the MDV end-to-end benchmark. One process boots a
// durable MDP serving on loopback and two LMRs connected to it over the
// wire, loads a rule base through the LMRs, and drives a seeded workload
// through a separate writer connection. Each write is timed from its due
// time until it is applied at every LMR it affects; the LMR caches are
// then checked against an oracle. With -trace 1 the same workload runs
// again with spans recorded around every layer call, and the op stream is
// replayed through each inner layer's public functions to attribute the
// cost by layer.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload single-path --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run boots the system; setup_s is the
// median. Every boot runs one timed window of an equal share of the run's
// seconds, so a run measures three systems spread over its whole length.
// Untraced, each end-to-end metric is taken from one of the three windows
// (see pickWindow); traced, the last window is the traced one and the
// others are its untraced reference.
const setupReps = 3

// lateBound is the generator lateness (p99) beyond which an open-loop run
// is invalid: the generator fell more than five op intervals (at 25 ops/s)
// behind its schedule.
const lateBound = 200 * time.Millisecond

// outDir holds the run's data directories, span file and full report.
var outDir = filepath.Join(".bench_build", "perfbench-run")

func main() {
	workloadName := flag.String("workload", "", "single-path, batch-join, churn-query, or all three in turn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "timed window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	names := []string{*workloadName}
	if *workloadName == "all" {
		names = []string{"single-path", "batch-join", "churn-query"}
	}
	for _, name := range names {
		if err := run(name, *seed, *seconds, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

// result is the full report of one run, written to outDir as JSON.
type result struct {
	Provenance  provenance     `json:"provenance"`
	Correct     bool           `json:"correct"`
	Invalid     string         `json:"invalid,omitempty"`
	Attempted   int            `json:"attempted"`
	Failed      int            `json:"failed"`
	FailedBy    map[string]int `json:"failed_by"`
	Mismatches  []string       `json:"mismatches,omitempty"`
	EndToEnd    []metric       `json:"end_to_end"`
	PerLayer    []metric       `json:"per_layer,omitempty"`
	Diagnostics []metric       `json:"diagnostics"`
	SpanFile    string         `json:"span_file,omitempty"`
}

func run(name string, seed int64, seconds int, traced bool) error {
	window := time.Duration(seconds) * time.Second / setupReps
	s, err := buildSpec(name, seed, window)
	if err != nil {
		return err
	}
	s.params["windows"] = setupReps
	s.params["window_s"] = window.Seconds()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dataDir := filepath.Join(outDir, "data")
	res := &result{Provenance: newProvenance(s, seed, seconds, traced, outDir), FailedBy: map[string]int{}}

	var setups dist
	var windows []*outcome // untraced
	var main *outcome      // traced
	var tr *tracer
	for i := 0; i < setupReps; i++ {
		if traced && i == setupReps-1 {
			tr = newTracer()
		}
		t0 := time.Now()
		sys, err := boot(dataDir, s, tr)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups.add(time.Since(t0))
		ps := windowProbe(i)
		if tr != nil {
			ps = tracedProbe
		}
		out, err := execute(sys, s, window, ps)
		sys.close()
		if err != nil {
			return err
		}
		if tr != nil {
			main = out
		} else {
			windows = append(windows, out)
		}
	}
	untraced := summarize(res, s, setups, windows)
	if traced {
		if err := perLayer(res, s, main, untraced, tr, dataDir); err != nil {
			return err
		}
		res.SpanFile = filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", s.name, seed))
		if err := tr.writeFile(res.SpanFile); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	os.RemoveAll(dataDir)
	return emit(res, traced)
}

// emit prints every metric with its unit and evidence, writes the full
// report, and prints the one-line summary last.
func emit(res *result, traced bool) error {
	show := func(title string, ms []metric) {
		fmt.Println(title)
		for _, m := range ms {
			extra := fmt.Sprintf("n=%d", m.N)
			if m.Base != nil {
				extra = "base " + m.Base.String()
			}
			if m.Insufficient {
				extra += " INSUFFICIENT (fewer than 10 samples beyond)"
			}
			if m.Note != "" {
				extra += "; " + m.Note
			}
			fmt.Printf("  %-34s %14.4f %-6s %s\n", m.Name, m.Value, m.Unit, extra)
		}
	}
	p := res.Provenance
	fmt.Printf("perfbench %s seed=%d seconds=%d traced=%v commit=%s go=%s GOMAXPROCS=%d nproc=%d sync=%s fs=%s\n",
		p.Workload, p.Seed, p.Seconds, p.Traced, p.Commit, p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.SyncPolicy, p.DataFS)
	show("end-to-end:", res.EndToEnd)
	show("diagnostics:", res.Diagnostics)
	if traced {
		show("per-layer:", res.PerLayer)
		fmt.Println("spans:", res.SpanFile)
	}
	for _, m := range res.Mismatches {
		fmt.Println("mismatch:", m)
	}
	if res.Invalid != "" {
		fmt.Println("INVALID:", res.Invalid)
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%v.json", p.Workload, p.Seed, traced))
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Println("report:", path)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := res.EndToEnd
	if traced {
		list = res.PerLayer
	}
	metrics := map[string]value{}
	for _, m := range list {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// outcome is what one system's window of the workload produced, or
// several windows pooled.
type outcome struct {
	w          *window
	windows    int
	warmFailed int
	heapMB     float64
	// calibration is the machine-speed probe taken before the window,
	// the median over the windows when pooled.
	calibration float64
	mismatches  []string
	prop, ack   dist
	late        dist
	writeErrs   int
	overdue     int
	docs        int
	// elapsed is the time from the window's start to its last
	// acknowledgement.
	elapsed time.Duration
}

// execute warms the system up, runs the timed window, probes the idle
// caches with ps, and checks the caches against the oracle.
func execute(sys *system, s *spec, seconds time.Duration, ps probeSpec) (*outcome, error) {
	out := &outcome{windows: 1}
	ww := &window{start: time.Now()}
	sys.runOps(s.warmup, s.rate, time.Hour, ww)
	for _, run := range ww.runs {
		if _, ok := sys.track.completedAt(run); !ok || run.err != nil {
			out.warmFailed++
		}
	}
	sys.probe(s.queries, warmupProbe)

	out.calibration = calibrate()
	runtime.GC() // every window starts from a collected heap
	w := sys.measure(s, s.ops, seconds)
	out.w = w
	out.elapsed = w.lastAck.Sub(w.start)
	out.heapMB = liveHeapMB()
	// The probe follows the forced collection, so the window's garbage
	// is not collected while it runs.
	if !s.reader || sys.tr != nil {
		w.probe = sys.probe(s.queries, ps)
	}
	acked := append(append([]*op(nil), s.preload...), s.warmup...)
	for _, run := range w.runs {
		if run.err != nil {
			out.writeErrs++
			continue
		}
		acked = append(acked, run.op)
		out.ack.add(run.ack.Sub(run.due))
		out.docs += run.op.docCount()
		if s.rate > 0 {
			out.late.add(run.late)
		}
		at, ok := sys.track.completedAt(run)
		if !ok || at.Sub(run.due) > opDeadline {
			out.overdue++
			continue
		}
		out.prop.add(at.Sub(run.due))
	}
	state := finalState(acked)
	mism, err := sys.checkCaches(state, len(s.rules))
	if err != nil {
		return nil, err
	}
	q, err := sys.checkQueries(state, len(s.rules))
	if err != nil {
		return nil, err
	}
	out.mismatches = append(mism, q...)
	return out, nil
}

// summarize fills the end-to-end metrics, diagnostics and failure counts of
// a run's untraced windows and returns the windows pooled. Each end-to-end
// metric is taken from one window (see pickWindow); failures and
// diagnostics come from the pooled windows.
func summarize(res *result, s *spec, setups dist, windows []*outcome) *outcome {
	var e2e report
	e2e.add(metric{Name: "setup_s", Value: setups.percentile(0.5).Value / 1000, Unit: "s", N: len(setups),
		Note: "median of set-ups (boot, rule load over the wire, preload)"})
	per := make([][]metric, len(windows))
	for i, o := range windows {
		per[i] = o.endToEnd(s)
	}
	for j := range per[0] {
		ms := make([]metric, len(per))
		for i := range per {
			ms[i] = per[i][j]
		}
		e2e.add(pickWindow(ms, s.bestWindow))
	}
	res.EndToEnd = e2e.list
	out := pool(windows)
	out.diagnose(res, s, setups)
	return out
}

// endToEnd is one window's end-to-end metrics, setup_s aside.
func (out *outcome) endToEnd(s *spec) []metric {
	w := out.w
	var e2e report
	e2e.pctMetric("propagation_p50_ms", "ms", out.prop, 0.5)
	e2e.pctMetric("propagation_p90_ms", "ms", out.prop, 0.9)
	e2e.pctMetric("ack_p50_ms", "ms", out.ack, 0.5)
	e2e.ratioMetric("docs_per_s", "1/s", float64(out.docs), out.elapsed.Seconds())
	qm := metric{Name: "queries_per_s", Unit: "1/s", N: w.qCount}
	if s.reader {
		qm.Value = float64(w.qCount) / w.qBusy.Seconds()
		qm.Note = "reader's completed queries, each LMR's answer counted, per second of its time"
	} else {
		qm.Value = 1000 / w.probe.roundPerQuery.percentile(0.5).Value
		qm.N = w.probe.qCount
		qm.Note = "idle-cache probe after the window, 1 / median per-round time per query (no reader runs on this workload)"
	}
	e2e.add(qm)
	e2e.ratioMetric("cpu_ms_per_doc", "ms", float64(w.cpu)/float64(time.Millisecond), float64(out.docs))
	e2e.add(metric{Name: "heap_live_mb", Value: out.heapMB, Unit: "MB", N: 1, Note: "after a forced GC at the end of the window"})
	return e2e.list
}

// higherIsBetter names the end-to-end metrics where a larger value is
// better; on every other one a smaller value is.
var higherIsBetter = map[string]bool{"docs_per_s": true, "queries_per_s": true}

// pickWindow returns, of one metric's values in each window, the best
// one (best) or the median one (the lower middle of an even count),
// noting all of them. It is insufficient when any window's is.
//
// single-path takes the best window. Each of its windows rests on 150
// like, independent ops at a light load, so its windows differ mostly in
// how much the shared host slowed them; steal and contention only ever
// add time, and a burst of it can cover two of three windows. Its best
// window is then the closest estimate of the program's own cost: in ten
// runs made while the host was disturbed, it halved the spread of the
// latencies against the median window. batch-join's windows (about 70
// batches) and churn-query's (writes racing the reader's long path
// queries) also vary both ways by chance, and there the best window
// spread wider than the median one, so they take the median.
func pickWindow(ms []metric, best bool) metric {
	sorted := append([]metric(nil), ms...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Value < sorted[j].Value })
	m := sorted[(len(sorted)-1)/2]
	how := "median"
	if best {
		how = "best"
		m = sorted[0]
		if higherIsBetter[m.Name] {
			m = sorted[len(sorted)-1]
		}
	}
	vals := make([]string, len(ms))
	for i, x := range ms {
		vals[i] = strconv.FormatFloat(x.Value, 'g', 4, 64)
		m.Insufficient = m.Insufficient || x.Insufficient
	}
	note := fmt.Sprintf("%s of %d windows (%s)", how, len(ms), strings.Join(vals, ", "))
	if m.Note != "" {
		note += "; " + m.Note
	}
	m.Note = note
	return m
}

// diagnose fills the failure counts, diagnostics and validity of pooled
// windows.
func (out *outcome) diagnose(res *result, s *spec, setups dist) {
	w := out.w
	var diag report
	res.FailedBy["write_error"] = out.writeErrs
	res.FailedBy["apply_deadline_missed"] = out.overdue
	res.FailedBy["oracle_mismatch"] = len(out.mismatches)
	res.FailedBy["query_error"] = w.queryErrs
	res.FailedBy["warmup_failed"] = out.warmFailed
	res.Attempted = len(w.runs) + w.qCount + w.queryErrs
	if w.probe != nil {
		res.Attempted += w.probe.qCount + w.probe.queryErrs
		res.FailedBy["query_error"] += w.probe.queryErrs
	}
	for _, n := range res.FailedBy {
		res.Failed += n
	}
	res.Mismatches = out.mismatches
	if len(res.Mismatches) > 20 {
		res.Mismatches = res.Mismatches[:20]
	}
	diag.ratioMetric("failed_ratio", "ratio", float64(res.Failed), float64(res.Attempted))
	diag.pctMetric("propagation_p99_ms", "ms", out.prop, 0.99)
	diag.pctMetric("gen_late_p99_ms", "ms", out.late, 0.99)
	diag.add(metric{Name: "calibration_ms", Value: out.calibration, Unit: "ms", N: 3 * out.windows,
		Note: "median time of a fixed map-and-sort computation before each window: machine speed"})
	diag.add(metric{Name: "setup_max_s", Value: setups.percentile(1).Value / 1000, Unit: "s", N: len(setups)})
	diag.add(metric{Name: "window_ops", Value: float64(len(w.runs)), Unit: "count", N: out.windows,
		Note: "ops over all pooled windows"})
	if w.exhausted {
		diag.add(metric{Name: "generator_exhausted", Value: 1, Unit: "flag", N: 1,
			Note: "closed loop used every generated op before the window closed"})
	}
	res.Diagnostics = diag.list

	res.Correct = len(out.mismatches) == 0
	if late := out.late.percentile(0.99); s.rate > 0 && late.Value > float64(lateBound)/float64(time.Millisecond) {
		res.Invalid = fmt.Sprintf("generator lateness p99 %.1f ms exceeds the %v bound", late.Value, lateBound)
		res.Correct = false
	}
}

// pool combines the outcomes of a run's untraced windows for the failure
// counts, the diagnostics and the per-layer reference: ops and the
// propagation and lateness samples are pooled, counts and CPU time
// summed, and the calibration is the median over the windows.
func pool(outs []*outcome) *outcome {
	p := &outcome{w: &window{}}
	var calib dist
	for _, o := range outs {
		w := o.w
		p.w.runs = append(p.w.runs, w.runs...)
		p.w.exhausted = p.w.exhausted || w.exhausted
		p.w.cpu += w.cpu
		p.w.rt = p.w.rt.add(w.rt)
		p.w.queryErrs += w.queryErrs
		p.w.qCount += w.qCount
		if w.probe != nil {
			if p.w.probe == nil {
				p.w.probe = &window{}
			}
			p.w.probe.queryErrs += w.probe.queryErrs
			p.w.probe.qCount += w.probe.qCount
		}
		p.windows += o.windows
		p.warmFailed += o.warmFailed
		calib = append(calib, o.calibration)
		p.mismatches = append(p.mismatches, o.mismatches...)
		p.prop = append(p.prop, o.prop...)
		p.late = append(p.late, o.late...)
		p.writeErrs += o.writeErrs
		p.overdue += o.overdue
		p.docs += o.docs
	}
	p.calibration = calib.percentile(0.5).Value
	return p
}
