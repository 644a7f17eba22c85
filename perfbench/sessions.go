package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"
)

// sessionOutcome is what one replayed session measured.
type sessionOutcome struct {
	ok    bool
	acked int
	// l1 is the summed |served query estimate - recorded true progress|
	// over the batches carrying snapshots, n their count.
	l1 float64
	n  int
}

// replaySession opens a session for rec, posts every batch and after
// each one reads progress until the daemon serves the update that batch
// makes due. Every answer is checked. Batch latencies go to lat, which
// may be nil.
func replaySession(a *api, t *tally, rec *session, lat *series) sessionOutcome {
	var out sessionOutcome
	t.attempt()
	var open sessionState
	if err := a.call(http.MethodPost, "/sessions", rec.spec, http.StatusCreated, &open); err != nil {
		t.fail("open session for query %d: %v", rec.query, err)
		return out
	}
	path := "/sessions/" + open.ID
	prevSeq := -1
	for bi, b := range rec.batches {
		t0 := time.Now()
		var ack sessionState
		if err := a.call(http.MethodPost, path+"/observations", b.body, http.StatusOK, &ack); err != nil {
			t.fail("session %s batch %d: %v", open.ID, bi, err)
			return out
		}
		wantState := "open"
		if b.done {
			wantState = "completed"
		}
		if ack.State != wantState || ack.Added != b.snaps {
			t.fail("session %s batch %d: state %q added %d, want %q added %d",
				open.ID, bi, ack.State, ack.Added, wantState, b.snaps)
			return out
		}
		var p sessionState
		for polls := 0; ; polls++ {
			if polls == maxPolls {
				t.fail("session %s batch %d: progress never reached time %g", open.ID, bi, b.servedTime)
				return out
			}
			if err := a.call(http.MethodGet, path+"/progress", nil, http.StatusOK, &p); err != nil {
				t.fail("session %s progress: %v", open.ID, err)
				return out
			}
			u := p.Update
			if b.done && u != nil && u.Done || !b.done && (!b.served || u != nil && u.Time >= b.servedTime) {
				break
			}
		}
		lat.add(ms(time.Since(t0)))
		out.acked += ack.Added
		if u := p.Update; u != nil {
			if err := checkUpdate(u, prevSeq); err != nil {
				t.fail("session %s batch %d: %v", open.ID, bi, err)
				return out
			}
			prevSeq = u.Seq
			if b.snaps > 0 {
				out.l1 += math.Abs(u.Query - b.truth)
				out.n++
			}
		}
		if b.done && p.State != "completed" {
			t.fail("session %s ended %q, want completed", open.ID, p.State)
			return out
		}
	}
	out.ok = true
	return out
}

// runSessions is the sessions workload: two closed-loop clients each
// replaying recorded queries through the session API.
func runSessions(ctx context.Context, env *runEnv) error {
	a := newAPI(env.d.base, 2)
	defer a.close()
	order := queryOrder(env.seed)
	rec := func(i int) *session { return env.sessions[order[i%len(order)]] }

	closedLoop(ctx, 2, len(order), time.Time{}, func(i int) { replaySession(a, env.tally, rec(i), nil) })

	// sessions_l1 sums per query index over the first pass of the order,
	// in index order, so it is the same number on every run.
	var mu sync.Mutex
	l1 := make([]float64, len(order))
	l1n := make([]int, len(order))
	first := make([]bool, len(order))
	env.startMeasure()
	elapsed, gaps := closedLoop(ctx, 2, 0, time.Now().Add(env.seconds), func(i int) {
		out := replaySession(a, env.tally, rec(i), env.lat)
		if !out.ok {
			return
		}
		env.done.add(float64(out.acked))
		if i < len(order) {
			mu.Lock()
			q := order[i]
			l1[q], l1n[q], first[q] = out.l1, out.n, true
			mu.Unlock()
		}
	})
	env.endMeasure(elapsed, gaps)
	env.throughput("sessions_obs_per_s", "snapshots/s")
	sum, n := 0.0, 0
	for q := range l1 {
		if !first[q] {
			return fmt.Errorf("sessions_l1: only part of the first pass of %d sessions completed", len(order))
		}
		sum += l1[q]
		n += l1n[q]
	}
	env.detail("sessions_l1", "1", sum/float64(n), n)
	return env.latencies("sessions_batch")
}
