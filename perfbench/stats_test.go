package main

import (
	"testing"
	"time"
)

func samples(n int) dist {
	var d dist
	for i := 1; i <= n; i++ {
		d.add(time.Duration(i) * time.Millisecond)
	}
	return d
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n          int
		q          float64
		value      float64
		sufficient bool
	}{
		{19, 0.5, 10, false}, // 9 beyond
		{20, 0.5, 10, true},  // 10 beyond
		{99, 0.9, 90, false},
		{100, 0.9, 90, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{1, 0.5, 1, false},
	}
	for _, c := range cases {
		p := samples(c.n).percentile(c.q)
		if p.Value != c.value || p.Sufficient != c.sufficient || p.N != c.n {
			t.Errorf("n=%d q=%v: got value %v sufficient %v n %d, want %v %v %d",
				c.n, c.q, p.Value, p.Sufficient, p.N, c.value, c.sufficient, c.n)
		}
	}
	if p := (dist{}).percentile(0.5); p.Sufficient || p.N != 0 {
		t.Errorf("empty dist: %+v", p)
	}
}

func TestReportFlagsInsufficientAndKeepsBase(t *testing.T) {
	var r report
	r.pctMetric("p99", "ms", samples(500), 0.99)
	r.ratioMetric("failed_ratio", "ratio", 3, 120)
	p, f := r.list[0], r.list[1]
	if !p.Insufficient || p.N != 500 {
		t.Errorf("p99 of 500 samples: %+v, want insufficient with n=500", p)
	}
	if f.Base == nil || f.Base.Num != 3 || f.Base.Den != 120 || f.Value != 0.025 {
		t.Errorf("failed_ratio: %+v", f)
	}
	if f.Base.String() != "3/120" {
		t.Errorf("base renders as %q", f.Base.String())
	}
	if z := newRatio(0, 0); z.Value != 0 {
		t.Errorf("0/0 = %v, want 0", z.Value)
	}
}

func TestPoolCombinesWindows(t *testing.T) {
	win := func(ops int, prop dist, calib float64, cpu time.Duration) *outcome {
		w := &window{cpu: cpu, qCount: 1, probe: &window{qCount: 2}}
		for i := 0; i < ops; i++ {
			w.runs = append(w.runs, &opRun{})
		}
		return &outcome{w: w, windows: 1, prop: prop, docs: ops, calibration: calib}
	}
	p := pool([]*outcome{
		win(2, dist{1, 2}, 30, time.Second),
		win(3, dist{3, 4, 5}, 10, 2*time.Second),
		win(1, dist{6}, 20, time.Second),
	})
	if p.windows != 3 || p.docs != 6 || len(p.w.runs) != 6 {
		t.Fatalf("counts: windows %d docs %d runs %d", p.windows, p.docs, len(p.w.runs))
	}
	if got := p.prop.percentile(0.5).Value; len(p.prop) != 6 || got != 3 {
		t.Fatalf("pooled propagation: %d samples, p50 %v, want 6 and 3", len(p.prop), got)
	}
	if p.calibration != 20 {
		t.Fatalf("calibration %v, want the median 20", p.calibration)
	}
	if p.w.cpu != 4*time.Second || p.w.qCount != 3 || p.w.probe.qCount != 6 {
		t.Fatalf("sums: cpu %v queries %d probe queries %d", p.w.cpu, p.w.qCount, p.w.probe.qCount)
	}
}

func TestPickWindow(t *testing.T) {
	b := newRatio(7, 1)
	ms := []metric{
		{Name: "x", Value: 9, N: 3},
		{Name: "x", Value: 7, N: 2, Base: &b},
		{Name: "x", Value: 1, N: 1, Insufficient: true},
	}
	m := pickWindow(ms, false)
	if m.Value != 7 || m.N != 2 || m.Base != &b {
		t.Fatalf("median: got %+v, want the window with value 7", m)
	}
	if !m.Insufficient {
		t.Fatal("one insufficient window must mark the result insufficient")
	}
	if m.Note != "median of 3 windows (9, 7, 1)" {
		t.Fatalf("note %q", m.Note)
	}
	if m := pickWindow(ms, true); m.Value != 1 || m.Note != "best of 3 windows (9, 7, 1)" {
		t.Fatalf("best of a lower-is-better metric: got %+v", m)
	}
	for i := range ms {
		ms[i].Name = "docs_per_s"
	}
	if m := pickWindow(ms, true); m.Value != 9 {
		t.Fatalf("best of a higher-is-better metric: got %v, want 9", m.Value)
	}
}
