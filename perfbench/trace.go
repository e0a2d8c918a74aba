package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around a call into
// a layer. Spans of one op share its id; Parent names the span that
// caused this one.
type span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	// StartUS is microseconds since the tracer was created.
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	LMR     int     `json:"lmr"`
	Bytes   uint64  `json:"bytes,omitempty"`
	Err     string  `json:"err,omitempty"`
	start   time.Time
	end     time.Time
}

// pushCall is one push callback at an LMR and the ops it advanced.
type pushCall struct {
	enter   time.Time
	apply   time.Duration
	bytes   uint64
	touched []*opRun
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	pushes []pushCall
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// opID names an op's spans: its document URI (or batch) and number.
func opID(run *opRun) string {
	o := run.op
	if o.docN >= 0 {
		return fmt.Sprintf("%s#op%d", docURI(o.docN), o.n)
	}
	return fmt.Sprintf("batch#op%d", o.n)
}

func (tr *tracer) record(sp span) {
	sp.StartUS = float64(sp.start.Sub(tr.origin)) / float64(time.Microsecond)
	sp.DurUS = float64(sp.end.Sub(sp.start)) / float64(time.Microsecond)
	tr.mu.Lock()
	tr.spans = append(tr.spans, sp)
	tr.mu.Unlock()
}

// span records a free-standing interval (subscription, query).
func (tr *tracer) span(name, id string, start, end time.Time, lmr int) {
	tr.record(span{ID: id, Name: name, start: start, end: end, LMR: lmr})
}

// write records an op's write call and, when it had to wait for the
// previous op on its document, that wait.
func (tr *tracer) write(run *opRun) {
	id := opID(run)
	sp := span{ID: id, Name: "mdp.write." + run.op.kind.String(), start: run.sent, end: run.ack, LMR: -1}
	if run.err != nil {
		sp.Err = run.err.Error()
	}
	if wait := run.sent.Sub(run.due); run.op.prev != nil && wait > run.late {
		tr.record(span{ID: id, Name: "harness.wait_previous", start: run.due, end: run.sent, LMR: -1})
	}
	tr.record(sp)
}

// push records one push callback at an LMR: entry to exit of the node's
// apply and the bytes its connection read since the previous push, as one
// span per op the changeset advanced (or one unattributed span).
func (tr *tracer) push(lmr int, touched []*opRun, enter, exit time.Time, bytes uint64, err error) {
	tr.mu.Lock()
	tr.pushes = append(tr.pushes, pushCall{enter: enter, apply: exit.Sub(enter), bytes: bytes, touched: touched})
	tr.mu.Unlock()
	sp := span{ID: "push", Name: "lmr.apply", start: enter, end: exit, LMR: lmr, Bytes: bytes}
	if err != nil {
		sp.Err = err.Error()
	}
	if len(touched) == 0 {
		tr.record(sp)
	}
	for _, run := range touched {
		sp.ID, sp.Parent = opID(run), "mdp.write."+run.op.kind.String()
		tr.record(sp)
	}
}

// pushStats summarises the push callbacks that entered in [from, to):
// apply times, bytes read, and the wait from each advanced op's write
// start to the callback entry.
func (tr *tracer) pushStats(from, to time.Time) (apply, wait dist, bytes uint64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, p := range tr.pushes {
		if p.enter.Before(from) || !p.enter.Before(to) {
			continue
		}
		apply.add(p.apply)
		bytes += p.bytes
		for _, run := range p.touched {
			wait.add(p.enter.Sub(run.sent))
		}
	}
	return apply, wait, bytes
}

// durations returns the durations of the spans with the given name.
func (tr *tracer) durations(name string) dist {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var d dist
	for _, sp := range tr.spans {
		if sp.Name == name {
			d.add(sp.end.Sub(sp.start))
		}
	}
	return d
}

// writeFile writes every span as one JSON object per line.
func (tr *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for _, sp := range tr.spans {
		if err := enc.Encode(&sp); err != nil {
			tr.mu.Unlock()
			f.Close()
			return err
		}
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
