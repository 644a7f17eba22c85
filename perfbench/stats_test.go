package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	p, err := percentile(seq(1000), 99)
	if err != nil {
		t.Fatal(err)
	}
	if p.Value != 990 || p.N != 1000 {
		t.Fatalf("p99 of 1..1000 = %+v, want 990 over 1000", p)
	}
	p, err = percentile(seq(20), 50)
	if err != nil {
		t.Fatal(err)
	}
	if p.Value != 10 || p.N != 20 {
		t.Fatalf("p50 of 1..20 = %+v, want 10 over 20", p)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{{999, 99}, {19, 50}, {0, 50}, {100, 95}} {
		if _, err := percentile(seq(c.n), c.p); err == nil {
			t.Errorf("p%g over %d samples: want refusal", c.p, c.n)
		}
	}
	if _, err := percentile(seq(200), 95); err != nil {
		t.Errorf("p95 over 200 samples has 10 beyond: %v", err)
	}
}

func TestSelfTimeUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping count once", []interval{{10, 40}, {20, 50}, {45, 60}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"clipped to parent", []interval{{-50, 10}, {95, 200}}, 85},
		{"outside parent", []interval{{150, 200}}, 100},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSeriesChunkedStatistics(t *testing.T) {
	s := newSeries()
	// 40 samples, one every 100ms; the last chunk's values are outliers
	// the median over chunks must ignore.
	for i := 0; i < 40; i++ {
		s.at = append(s.at, time.Duration(i+1)*100*time.Millisecond)
		v := 1.0
		if i >= 36 {
			v = 100
		}
		s.v = append(s.v, v)
	}
	p, err := s.percentile(50) // 20 per chunk: 2 chunks
	if err != nil {
		t.Fatal(err)
	}
	if p.Value != 1 || p.N != 40 {
		t.Fatalf("chunked p50 = %+v, want 1 over 40", p)
	}
	if _, err := s.percentile(99); err == nil {
		t.Fatal("p99 over 40 samples: want refusal")
	}
	// 4 chunks of 10 samples over 1s each: rates 10, 10, 10 and 10+...
	rate, n := s.rate()
	if rate != 10 || n != 40+4*99 {
		t.Fatalf("rate %g over %d, want 10 over %d", rate, n, 40+4*99)
	}
}
