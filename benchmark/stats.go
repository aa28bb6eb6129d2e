package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// lat collects latency samples in milliseconds.
type lat struct{ ms []float64 }

func (l *lat) add(d time.Duration) { l.ms = append(l.ms, float64(d)/1e6) }

func (l *lat) n() int { return len(l.ms) }

// quantile returns the q-quantile (nearest rank) of vals; vals is left
// unsorted. NaN when empty.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// iqMean is the mean of the middle half of vals: as robust against a
// slow stretch of the machine as the median, but it moves smoothly when
// the samples have two modes (a restart that finds a WAL tail to replay
// and one that does not), where the median jumps between them.
func iqMean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, v := range s[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// rssSampler polls VmRSS and the live heap every 100 ms and keeps the
// maxima.
type rssSampler struct {
	stop     chan struct{}
	wg       sync.WaitGroup
	peak     float64 // MiB
	peakHeap float64 // MiB
}

// heapMiB reads the bytes in live and unswept heap objects without
// stopping the world.
func heapMiB() float64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

func (s *rssSampler) sample() {
	if v := readRSSMiB(); v > s.peak {
		s.peak = v
	}
	if v := heapMiB(); v > s.peakHeap {
		s.peakHeap = v
	}
}

func readRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.sample()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

// done stops the sampler; the peaks are final afterwards.
func (s *rssSampler) done() {
	close(s.stop)
	s.wg.Wait()
	s.sample()
}
