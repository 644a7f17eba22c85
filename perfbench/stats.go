package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is the number of samples a reported percentile must have
// above it; with fewer, the tail is a handful of outliers, not a
// percentile.
const minBeyond = 10

// Percentile is one nearest-rank percentile of a sample set, with the
// sample count it was taken from.
type Percentile struct {
	Value float64
	N     int
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs. It refuses when fewer than minBeyond samples lie beyond the rank.
func percentile(xs []float64, p float64) (Percentile, error) {
	n := len(xs)
	if p <= 0 || p >= 100 {
		return Percentile{}, fmt.Errorf("percentile %g out of (0,100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return Percentile{}, fmt.Errorf("p%g needs %d samples beyond it; %d samples leave %d",
			p, minBeyond, n, max(n-rank, 0))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Percentile{Value: s[rank-1], N: n}, nil
}

// median is the 50th percentile without the tail-size guard, for
// quantities sampled a few times by design (set-up launches).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the p99 of xs when enough samples lie beyond it, else the
// maximum: the worst case a guard should compare against.
func tail(xs []float64) float64 {
	if p, err := percentile(xs, 99); err == nil {
		return p.Value
	}
	worst := 0.0
	for _, x := range xs {
		worst = max(worst, x)
	}
	return worst
}

// interval is a closed time range [lo, hi] in nanoseconds.
type interval struct{ lo, hi int64 }

// selfTime is the length of parent not covered by the union of children,
// each clipped to parent first; overlapping children count once.
func selfTime(parent interval, children []interval) int64 {
	var cs []interval
	for _, c := range children {
		lo, hi := max(c.lo, parent.lo), min(c.hi, parent.hi)
		if lo < hi {
			cs = append(cs, interval{lo, hi})
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
	covered := int64(0)
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.lo <= cur.hi:
			cur.hi = max(cur.hi, c.hi)
		default:
			covered += cur.hi - cur.lo
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.hi - parent.lo - covered
}

// series records measured values with the time each completed, from
// its start. Its statistics are medians over consecutive chunks of the
// samples, so a few seconds of interference from outside the benchmark
// move them less than they move a whole-run figure. A nil series records
// nothing.
type series struct {
	mu    sync.Mutex
	start time.Time
	at    []time.Duration
	v     []float64
}

// maxChunks bounds how many chunks a series' statistics split it into.
const maxChunks = 10

func newSeries() *series { return &series{start: time.Now()} }

func (s *series) add(v float64) {
	if s == nil {
		return
	}
	at := time.Since(s.start)
	s.mu.Lock()
	s.at = append(s.at, at)
	s.v = append(s.v, v)
	s.mu.Unlock()
}

// chunks returns the samples in completion order split into
// min(maxChunks, n/minPer) runs of equal length, the remainder joining
// the last; none when n < minPer.
func (s *series) chunks(minPer int) (at [][]time.Duration, v [][]float64) {
	s.mu.Lock()
	idx := make([]int, len(s.at))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.at[idx[a]] < s.at[idx[b]] })
	ats := make([]time.Duration, len(idx))
	vs := make([]float64, len(idx))
	for i, j := range idx {
		ats[i], vs[i] = s.at[j], s.v[j]
	}
	s.mu.Unlock()
	k := min(maxChunks, len(ats)/minPer)
	for c := 0; c < k; c++ {
		lo, hi := c*len(ats)/k, (c+1)*len(ats)/k
		at = append(at, ats[lo:hi])
		v = append(v, vs[lo:hi])
	}
	return at, v
}

// percentile is the median over chunks of each chunk's nearest-rank p-th
// percentile; every chunk holds enough samples for minBeyond beyond it.
// N is the total sample count.
func (s *series) percentile(p float64) (Percentile, error) {
	minPer := 1
	for minPer-int(math.Ceil(p/100*float64(minPer))) < minBeyond {
		minPer++
	}
	_, vs := s.chunks(minPer)
	if len(vs) == 0 {
		return Percentile{}, fmt.Errorf("p%g needs %d samples, have %d", p, minPer, len(s.v))
	}
	var per []float64
	n := 0
	for _, v := range vs {
		q, err := percentile(v, p)
		if err != nil {
			return Percentile{}, err
		}
		per = append(per, q.Value)
		n += q.N
	}
	return Percentile{Value: median(per), N: n}, nil
}

// rate is the median over chunks of the values summed per second of the
// chunk, each chunk running from the previous one's last completion (or
// the start) to its own last; n is the summed value.
func (s *series) rate() (float64, int) {
	ats, vs := s.chunks(minBeyond)
	var per []float64
	total := 0.0
	var from time.Duration
	for c := range ats {
		sum := 0.0
		for _, v := range vs[c] {
			sum += v
		}
		to := ats[c][len(ats[c])-1]
		per = append(per, sum/(to-from).Seconds())
		from = to
		total += sum
	}
	return median(per), int(total)
}
