package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// closedLoop runs clients goroutines, each calling op back to back with
// the next sequence number until the deadline (or, with deadline zero,
// until n ops were issued). It returns the wall time from the first
// issue to the last completion and the gaps between a client's
// completion and its next issue.
func closedLoop(ctx context.Context, clients, n int, deadline time.Time, op func(i int)) (time.Duration, []float64) {
	var next atomic.Int64
	var mu sync.Mutex
	var gaps []float64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []float64
			var prev time.Time
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if deadline.IsZero() && i >= n || !deadline.IsZero() && !time.Now().Before(deadline) {
					break
				}
				if !prev.IsZero() {
					local = append(local, ms(time.Since(prev)))
				}
				op(i)
				prev = time.Now()
			}
			mu.Lock()
			gaps = append(gaps, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return time.Since(start), gaps
}

// maxPolls bounds the progress reads spent waiting on one update, so a
// daemon that never finishes fails the run instead of hanging it.
const maxPolls = 1 << 20

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pollQuery reads a native query's progress back to back until done,
// checking every update. It reports whether the query finished cleanly.
func pollQuery(a *api, t *tally, id string) bool {
	prevSeq := -1
	for polls := 0; ; polls++ {
		if polls == maxPolls {
			t.fail("query %s: not done after %d progress reads", id, polls)
			return false
		}
		var p queryProgress
		if err := a.call(http.MethodGet, "/queries/"+id+"/progress", nil, http.StatusOK, &p); err != nil {
			t.fail("progress %s: %v", id, err)
			return false
		}
		if p.Update != nil {
			if err := checkUpdate(p.Update, prevSeq); err != nil {
				t.fail("query %s: %v", id, err)
				return false
			}
			prevSeq = p.Update.Seq
			if p.Update.Done != p.Done {
				t.fail("query %s: response done %v but update done %v", id, p.Done, p.Update.Done)
				return false
			}
		}
		if p.Done {
			if p.Update == nil {
				t.fail("query %s: done without a final update", id)
				return false
			}
			return true
		}
	}
}

// submitAndWait runs one native query: POST /queries, then poll to done.
func submitAndWait(a *api, t *tally, query int) bool {
	t.attempt()
	var s submitted
	if err := a.call(http.MethodPost, "/queries", []byte(fmt.Sprintf(`{"query":%d}`, query)), http.StatusAccepted, &s); err != nil {
		t.fail("submit query %d: %v", query, err)
		return false
	}
	return pollQuery(a, t, s.ID)
}

// runNative is the native workload: two closed-loop clients submitting
// the seed's query order and polling each query to done.
func runNative(ctx context.Context, env *runEnv) error {
	a := newAPI(env.d.base, 2)
	defer a.close()
	order := queryOrder(env.seed)
	query := func(i int) int { return order[i%len(order)] }

	// Warm-up: one pass over every query fills the plan cache.
	closedLoop(ctx, 2, len(order), time.Time{}, func(i int) { submitAndWait(a, env.tally, query(i)) })

	env.startMeasure()
	elapsed, gaps := closedLoop(ctx, 2, 0, time.Now().Add(env.seconds), func(i int) {
		t0 := time.Now()
		if submitAndWait(a, env.tally, query(i)) {
			env.lat.add(ms(time.Since(t0)))
			env.done.add(1)
		}
	})
	env.endMeasure(elapsed, gaps)
	env.throughput("native_qps", "queries/s")
	return env.latencies("native")
}
