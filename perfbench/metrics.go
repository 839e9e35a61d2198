package main

// Metric bookkeeping and the statistics behind it.

import (
	"math"
	"sort"
)

// metric is one named measurement with its unit and sample count.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n"`
}

// metricSet keeps metrics in the order they were added.
type metricSet struct {
	list []metric
}

func (m *metricSet) add(name string, v float64, unit string, n int64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.list = append(m.list, metric{Name: name, Value: v, Unit: unit, N: n})
}

func (m *metricSet) get(name string) (metric, bool) {
	for _, x := range m.list {
		if x.Name == name {
			return x, true
		}
	}
	return metric{}, false
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// scaled converts nanosecond samples to a coarser unit: per = 1e3 for
// microseconds, 1e6 for milliseconds.
func scaled(ns []int64, per float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / per
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// metricDef names a metric the final output line carries.
type metricDef struct{ name, unit string }

// endToEnd lists the scored metrics in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"lat_p50_ms", "ms"},
	{"samples_per_s", "1/s"},
	{"swap_p10_ms", "ms"},
	{"heap_mb", "MB"},
}
