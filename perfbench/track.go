package main

import (
	"strconv"
	"sync"
	"time"

	"mdv/internal/core"
)

// opDeadline bounds how long after its due time an op may take to be
// applied at every LMR it affects; later counts as failed.
const opDeadline = 10 * time.Second

// opRun is the live state of one sent op. The writer goroutine owns
// the timing fields until done is closed or the op is abandoned.
type opRun struct {
	op *op
	// due is when the op was scheduled; sent and ack bracket the write
	// call; late is how far behind schedule the generator sent it.
	due, sent, ack time.Time
	late           time.Duration
	err            error
	// remaining, finished and doneAt are guarded by the tracker's mutex;
	// done is closed when the last expectation is met or the op fails.
	remaining int
	finished  bool
	doneAt    time.Time
	done      chan struct{}
}

func newRun(o *op) *opRun {
	return &opRun{op: o, remaining: len(o.expects), done: make(chan struct{})}
}

// docCount is how many documents the op writes: a delete writes one.
func (o *op) docCount() int {
	if o.kind == opDelete {
		return 1
	}
	return len(o.docs)
}

// pending is one unmet expectation of a sent op.
type pending struct {
	run *opRun
	exp expectation
}

// tracker matches applied changesets against the expectations of sent
// ops. Expectations are registered before an op is sent, so an early push
// is never missed; applied changes no op waits for are ignored.
type tracker struct {
	mu      sync.Mutex
	waiting map[string][]*pending // lmr|uri -> unmet expectations, in send order
}

func newTracker() *tracker { return &tracker{waiting: map[string][]*pending{}} }

func waitKey(lmr int, uri string) string { return strconv.Itoa(lmr) + "|" + uri }

// expect registers an op's expectations before it is sent.
func (t *tracker) expect(run *opRun) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range run.op.expects {
		k := waitKey(e.lmr, e.uri)
		t.waiting[k] = append(t.waiting[k], &pending{run: run, exp: e})
	}
	if run.remaining == 0 {
		t.finish(run, time.Now())
	}
}

// abandon drops the unmet expectations of a failed or overdue op and
// releases anything waiting on it. It reports whether the op was still
// unfinished.
func (t *tracker) abandon(run *opRun) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if run.finished {
		return false
	}
	for _, e := range run.op.expects {
		k := waitKey(e.lmr, e.uri)
		list := t.waiting[k][:0]
		for _, p := range t.waiting[k] {
			if p.run != run {
				list = append(list, p)
			}
		}
		if len(list) == 0 {
			delete(t.waiting, k)
		} else {
			t.waiting[k] = list
		}
	}
	run.finished = true
	close(run.done)
	return true
}

func (t *tracker) finish(run *opRun, at time.Time) {
	run.finished = true
	run.doneAt = at
	close(run.done)
}

// completedAt returns when the op was applied everywhere, if it was.
func (t *tracker) completedAt(run *opRun) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return run.doneAt, !run.doneAt.IsZero()
}

// applied records a changeset applied at an LMR. On a changeset shared by
// an interest group only the member's own credits and removals count,
// exactly as repository.ApplyPush applies them.
// It returns the ops the changeset advanced.
func (t *tracker) applied(lmr int, cs *core.Changeset, at time.Time) []*opRun {
	own := func(sub int64) bool { return true }
	if cs.MemberCredits != nil {
		mine := map[int64]bool{}
		for _, id := range cs.MemberCredits["lmr"+strconv.Itoa(lmr)] {
			mine[id] = true
		}
		own = func(sub int64) bool { return mine[sub] }
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.waiting) == 0 {
		return nil
	}
	var touched []*opRun
	note := func(run *opRun) {
		if run != nil && (len(touched) == 0 || touched[len(touched)-1] != run) {
			touched = append(touched, run)
		}
	}
	for _, u := range cs.Upserts {
		if !ownsAny(u.SubIDs, own) {
			continue
		}
		if m, ok := upsertMemory(u); ok {
			note(t.meet(lmr, u.Resource.URIRef, false, m, at))
		}
	}
	for _, r := range cs.Removals {
		if own(r.SubID) {
			note(t.meet(lmr, r.URIRef, true, 0, at))
		}
	}
	for _, uri := range cs.ForcedDeletes {
		note(t.meet(lmr, uri, true, 0, at))
	}
	return touched
}

func ownsAny(ids []int64, own func(int64) bool) bool {
	for _, id := range ids {
		if own(id) {
			return true
		}
	}
	return false
}

// upsertMemory reads the memory value an upserted CycleProvider carries
// in its ServerInformation closure.
func upsertMemory(u core.Upsert) (int, bool) {
	for _, c := range u.Closure {
		if v, ok := c.Get("memory"); ok {
			m, err := strconv.Atoi(v.Literal)
			return m, err == nil
		}
	}
	return 0, false
}

// meet satisfies the oldest matching expectation for (lmr, uri) and
// returns its op.
func (t *tracker) meet(lmr int, uri string, gone bool, memory int, at time.Time) *opRun {
	k := waitKey(lmr, uri)
	list := t.waiting[k]
	for i, p := range list {
		if p.exp.gone != gone || (!gone && p.exp.memory != memory) {
			continue
		}
		if len(list) == 1 {
			delete(t.waiting, k)
		} else {
			t.waiting[k] = append(list[:i:i], list[i+1:]...)
		}
		p.run.remaining--
		if p.run.remaining == 0 {
			t.finish(p.run, at)
		}
		return p.run
	}
	return nil
}
