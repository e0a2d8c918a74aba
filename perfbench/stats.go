package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer, and the figure is one or two outliers.
const minBeyond = 10

// dist is a set of timing samples in milliseconds.
type dist []float64

func (d *dist) add(v time.Duration) { *d = append(*d, float64(v)/float64(time.Millisecond)) }

// pct is one percentile of a dist with the sample count it rests on.
type pct struct {
	Value  float64
	N      int
	Beyond int
	// Sufficient is false when fewer than minBeyond samples lie beyond
	// the percentile; Value is then the order statistic as measured and
	// must not be read as the percentile.
	Sufficient bool
}

// percentile returns the q-quantile (0 < q < 1) by nearest rank: the
// smallest sample with at least q·n samples at or below it.
func (d dist) percentile(q float64) pct {
	n := len(d)
	p := pct{N: n}
	if n == 0 {
		return p
	}
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	p.Value = s[rank-1]
	p.Beyond = n - rank
	p.Sufficient = p.Beyond >= minBeyond
	return p
}

func (d dist) sum() float64 {
	var t float64
	for _, v := range d {
		t += v
	}
	return t
}

// ratio is a quotient reported with its base.
type ratio struct {
	Num   float64 `json:"num"`
	Den   float64 `json:"den"`
	Value float64 `json:"value"`
}

func newRatio(num, den float64) ratio {
	r := ratio{Num: num, Den: den}
	if den != 0 {
		r.Value = num / den
	}
	return r
}

func (r ratio) String() string { return fmt.Sprintf("%g/%g", r.Num, r.Den) }

// metric is one reported figure: its value and unit, and the evidence
// behind it (sample count, sufficiency, ratio base, or a derivation).
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples or the base the value rests on.
	N int `json:"n"`
	// Insufficient marks a percentile with fewer than minBeyond samples
	// beyond it.
	Insufficient bool   `json:"insufficient,omitempty"`
	Base         *ratio `json:"base,omitempty"`
	Note         string `json:"note,omitempty"`
}

// report collects metrics in emission order.
type report struct {
	list []metric
}

func (r *report) add(m metric) { r.list = append(r.list, m) }

// pctMetric reports a percentile, flagging it when the samples do not
// support it.
func (r *report) pctMetric(name, unit string, d dist, q float64) {
	p := d.percentile(q)
	r.add(metric{Name: name, Value: p.Value, Unit: unit, N: p.N, Insufficient: !p.Sufficient})
}

// ratioMetric reports num/den with its base.
func (r *report) ratioMetric(name, unit string, num, den float64) {
	b := newRatio(num, den)
	r.add(metric{Name: name, Value: b.Value, Unit: unit, N: int(den), Base: &b})
}
