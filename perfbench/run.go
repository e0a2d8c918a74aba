package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// maxInFlight bounds the open loop's concurrent writes. Past it the
// generator blocks and its lateness shows the backlog.
const maxInFlight = 256

// probeSpec says which rounds of the query cycle a probe sends: from
// first, at least min rounds, and further rounds up to max until minTime
// has passed. A round sends the four query shapes to one LMR.
type probeSpec struct {
	first, min, max int
	minTime         time.Duration
}

// The traced window's probe sends 24 rounds, the per-layer query
// percentiles' samples. Each untraced window's probe takes its own 80
// rounds of the cycle and runs for at least a second, so that the cheap
// queries of a small cache are timed over more than a moment; the
// warm-up probe uses rounds past all of them.
var (
	tracedProbe = probeSpec{first: 0, min: 24, max: 24}
	warmupProbe = probeSpec{first: setupReps * windowProbeSpan, min: lmrCount, max: lmrCount}
)

const windowProbeSpan = 80

func windowProbe(i int) probeSpec {
	return probeSpec{first: i * windowProbeSpan, min: 8, max: windowProbeSpan, minTime: time.Second}
}

// probePathLimit is the largest per-LMR cache, in CycleProviders, the
// probe sends the one-hop path shape to: the LMR takes about a
// millisecond per cached provider for it, and batch-join leaves several
// thousand.
const probePathLimit = 1000

// window is what one timed run of a workload measured.
type window struct {
	start time.Time
	runs  []*opRun // scheduled ops, in schedule order
	// lastAck is the latest acknowledgement; drained is when every op had
	// propagated or hit its deadline.
	lastAck, drained time.Time
	exhausted        bool // closed loop ran out of generated ops
	cpu              time.Duration
	rt               runtimeDelta
	// queries holds per-shape query latencies; qBusy is the reader's
	// time waiting for answers.
	queries   [len(queryShapes)]dist
	queryErrs int
	qBusy     time.Duration
	qCount    int
	// roundPerQuery is a probe's time per query, one sample per round
	// at each LMR.
	roundPerQuery dist
	// probe holds the query probe sent after the window: on workloads
	// without a reader, and on every traced run (per-layer query costs).
	probe *window
}

// send runs one op: wait for the previous op on the same document to
// propagate, register the expectations, write, and record the ack.
func (sys *system) send(run *opRun) {
	o := run.op
	if o.prev != nil && o.prev.run != nil {
		select {
		case <-o.prev.run.done:
		case <-time.After(time.Until(run.due.Add(opDeadline))):
		}
	}
	sys.track.expect(run)
	run.sent = time.Now()
	var err error
	if o.kind == opDelete {
		err = sys.writer.DeleteDocument(o.uri)
	} else {
		err = sys.writer.RegisterDocuments(o.docs)
	}
	run.ack = time.Now()
	if err != nil {
		run.err = err
		sys.track.abandon(run)
	}
	if sys.tr != nil {
		sys.tr.write(run)
	}
}

// runOps executes ops from w.start: as an open loop at their due offsets
// (rate > 0) or as a closed loop with one writer until the window closes.
// It then waits for every scheduled op to propagate or miss its deadline.
func (sys *system) runOps(ops []*op, rate float64, seconds time.Duration, w *window) {
	for _, o := range ops {
		o.run = newRun(o)
	}
	end := w.start.Add(seconds)
	if rate > 0 {
		sem := make(chan struct{}, maxInFlight)
		var wg sync.WaitGroup
		for _, o := range ops {
			run := o.run
			run.due = w.start.Add(o.due)
			time.Sleep(time.Until(run.due))
			sem <- struct{}{}
			run.late = time.Since(run.due)
			w.runs = append(w.runs, run)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				sys.send(run)
			}()
		}
		wg.Wait()
	} else {
		w.exhausted = true
		for _, o := range ops {
			if !time.Now().Before(end) {
				w.exhausted = false
				break
			}
			o.run.due = time.Now()
			w.runs = append(w.runs, o.run)
			sys.send(o.run)
		}
	}
	for _, run := range w.runs {
		if run.ack.After(w.lastAck) {
			w.lastAck = run.ack
		}
		select {
		case <-run.done:
		case <-time.After(time.Until(run.due.Add(opDeadline))):
			sys.track.abandon(run)
		}
	}
	w.drained = time.Now()
}

// measure runs ops as the timed window: CPU and runtime counters are taken
// around it, and a reader runs beside it when the workload has one.
func (sys *system) measure(s *spec, ops []*op, seconds time.Duration) *window {
	cpu0 := processCPU()
	rt0 := readRuntime()
	w := &window{start: time.Now()}
	var rwg sync.WaitGroup
	if s.reader {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			sys.read(s.queries, w.start.Add(seconds), w)
		}()
	}
	sys.runOps(ops, s.rate, seconds, w)
	rwg.Wait()
	w.cpu = processCPU() - cpu0
	w.rt = readRuntime().sub(rt0)
	return w
}

// read is the closed-loop reader: it cycles the four query shapes,
// sending each query to both LMRs at once and the next one when both
// have answered, until the window ends.
func (sys *system) read(queries []string, end time.Time, w *window) {
	var mu sync.Mutex
	for i := 0; time.Now().Before(end); i++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for l := range sys.readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sys.query(queries, i, l, w, &mu)
			}()
		}
		wg.Wait()
		w.qBusy += time.Since(t0)
	}
}

// probe sends the query rounds of ps against the idle caches and returns
// their timings; the path shape is left out when a cache is past
// probePathLimit.
func (sys *system) probe(queries []string, ps probeSpec) *window {
	w := &window{}
	path := true
	for _, n := range sys.nodes {
		if got, err := n.Resources("CycleProvider"); err != nil || len(got) > probePathLimit {
			path = false
		}
	}
	// Rounds alternate LMRs, whose caches differ in size, so the time per
	// query is sampled over one round at each LMR.
	start := time.Now()
	for r := ps.first; r < ps.first+ps.max; r += lmrCount {
		if r >= ps.first+ps.min && time.Since(start) >= ps.minTime {
			break
		}
		t0 := time.Now()
		n := 0
		for i := r * len(queryShapes); i < (r+lmrCount)*len(queryShapes); i++ {
			if path || queryShapes[i%len(queryShapes)] != "path" {
				sys.query(queries, i, (i/len(queryShapes))%lmrCount, w, nil)
				n++
			}
		}
		w.roundPerQuery.add(time.Since(t0) / time.Duration(n))
	}
	return w
}

// query sends query i of the cycle to LMR l and records it in w; mu,
// when non-nil, serialises recorders running concurrently.
func (sys *system) query(queries []string, i, l int, w *window, mu *sync.Mutex) {
	shape := i % len(queryShapes)
	t0 := time.Now()
	_, err := sys.readers[l].Query(queries[i%len(queries)])
	t1 := time.Now()
	if mu != nil {
		mu.Lock()
		defer mu.Unlock()
	}
	if err != nil {
		w.queryErrs++
		return
	}
	w.queries[shape].add(t1.Sub(t0))
	w.qCount++
	if sys.tr != nil {
		sys.tr.span("query."+queryShapes[shape], fmt.Sprintf("q%d", i), t0, t1, l)
	}
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeDelta holds Go runtime counters, or their change over a window.
type runtimeDelta struct {
	gcCPU, totalCPU float64 // seconds
	allocBytes      float64
	gcCycles        float64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeDelta{gcCPU: val(0), totalCPU: val(1), allocBytes: val(2), gcCycles: val(3)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU,
		allocBytes: a.allocBytes - b.allocBytes, gcCycles: a.gcCycles - b.gcCycles}
}

func (a runtimeDelta) add(b runtimeDelta) runtimeDelta {
	return runtimeDelta{gcCPU: a.gcCPU + b.gcCPU, totalCPU: a.totalCPU + b.totalCPU,
		allocBytes: a.allocBytes + b.allocBytes, gcCycles: a.gcCycles + b.gcCycles}
}

// liveHeapMB forces a collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// calibrate times a fixed allocation- and pointer-heavy computation (map
// inserts and a sort) three times and returns the median, in ms. Run
// before the window, it shows how fast the machine was at the time, so
// drift between runs can be told apart from a change in the program.
func calibrate() float64 {
	var d dist
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		m := make(map[string]int)
		keys := make([]string, 0, 200000)
		for i := 0; i < 200000; i++ {
			k := strconv.Itoa(i * 7919)
			m[k] = i
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if len(m) != len(keys) {
			panic("calibrate: lost keys")
		}
		d.add(time.Since(t0))
	}
	return d.percentile(0.5).Value
}
