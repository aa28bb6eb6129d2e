// Package metrics provides the measurement instruments for the experiment
// harness: latency histograms with logarithmic buckets, counters, gauges,
// and text tables. Every experiment table cmd/benchrunner prints reports
// numbers collected through this package.
package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Histogram records durations in logarithmic buckets (one per power of
// ~1.25 between 1ns and ~1h) plus exact max and sum. The zero value is
// ready to use. Not safe for concurrent use.
type Histogram struct {
	counts [256]uint64
	n      uint64
	sum    time.Duration
	max    time.Duration
}

const bucketBase = 1.25

func bucketFor(d time.Duration) int {
	if d < 1 {
		d = 1
	}
	b := int(math.Log(float64(d)) / math.Log(bucketBase))
	if b < 0 {
		b = 0
	}
	if b > 255 {
		b = 255
	}
	return b
}

func bucketValue(b int) time.Duration {
	return time.Duration(math.Pow(bucketBase, float64(b)))
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	h.counts[bucketFor(d)]++
	h.n++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Mean returns the exact mean of all observations.
func (h *Histogram) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// Quantile returns an estimate of the q-quantile (0 < q <= 1), accurate to
// the bucket resolution (~25%).
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	target := uint64(q * float64(h.n))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= target {
			return bucketValue(b)
		}
	}
	return h.max
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.n, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.max)
}

// Counter is a monotonically increasing event count, safe for concurrent
// use. The zero value is ready. The subscription broker counts drops,
// resyncs, and skipped batches with it.
type Counter struct{ n atomic.Uint64 }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is an instantaneous level (e.g. queue depth, subscriber count),
// safe for concurrent use. The zero value is ready.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Table accumulates rows for an experiment report and renders them as an
// aligned text table (the format cmd/benchrunner prints).
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Rows returns the accumulated rows.
func (t *Table) Rows() [][]string { return t.rows }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, hn := range t.Headers {
		widths[i] = len(hn)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	out := ""
	if t.Title != "" {
		out += "## " + t.Title + "\n"
	}
	line := func(cells []string) string {
		s := ""
		for i, c := range cells {
			if i > 0 {
				s += "  "
			}
			s += pad(c, widths[i])
		}
		return s + "\n"
	}
	out += line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = dashes(widths[i])
	}
	out += line(sep)
	for _, row := range t.rows {
		out += line(row)
	}
	return out
}

func pad(s string, w int) string {
	for len(s) < w {
		s += " "
	}
	return s
}

func dashes(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '-'
	}
	return string(b)
}
