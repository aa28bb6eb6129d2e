package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.n != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("zero histogram")
	}
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.n != 100 {
		t.Errorf("count: %d", h.n)
	}
	if h.max != 100*time.Microsecond {
		t.Errorf("max: %v", h.max)
	}
	wantMean := time.Duration(50500) * time.Nanosecond
	if h.Mean() != wantMean {
		t.Errorf("mean: %v want %v", h.Mean(), wantMean)
	}
	p50 := h.Quantile(0.5)
	if p50 < 30*time.Microsecond || p50 > 80*time.Microsecond {
		t.Errorf("p50 out of tolerance: %v", p50)
	}
	if h.Quantile(1.0) < h.Quantile(0.5) {
		t.Error("quantiles must be monotone")
	}
	if !strings.Contains(h.String(), "n=100") {
		t.Errorf("string: %s", h.String())
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Record(0)             // clamps to 1ns bucket
	h.Record(2 * time.Hour) // clamps to last bucket
	if h.n != 2 {
		t.Error("count")
	}
	if h.Quantile(0.01) > time.Microsecond {
		t.Errorf("low quantile: %v", h.Quantile(0.01))
	}
}

func TestTable(t *testing.T) {
	tab := NewTable("E1: demo", "param", "metric")
	tab.AddRow("b", 2.5)
	tab.AddRow("a", 10.0)
	s := tab.String()
	if !strings.Contains(s, "## E1: demo") || !strings.Contains(s, "param") {
		t.Errorf("table:\n%s", s)
	}
	if strings.Index(s, "\nb ") > strings.Index(s, "\na ") {
		t.Errorf("rows out of insertion order:\n%s", s)
	}
	if !strings.Contains(s, "10") || !strings.Contains(s, "2.500") {
		t.Errorf("float formatting:\n%s", s)
	}
	if len(tab.Rows()) != 2 {
		t.Error("rows")
	}
}

func TestFormatFloat(t *testing.T) {
	if formatFloat(1234.5678) != "1234.6" {
		t.Errorf("large: %s", formatFloat(1234.5678))
	}
	if formatFloat(3) != "3" {
		t.Errorf("integral: %s", formatFloat(3))
	}
	if formatFloat(0.1234) != "0.123" {
		t.Errorf("small: %s", formatFloat(0.1234))
	}
}
