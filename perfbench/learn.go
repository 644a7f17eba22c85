package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// The learn workload's fixed schedules and the daemon's boosting
// iterations. The query rate sits well under native capacity; the
// retrain period leaves each retrain room to finish before the next.
// Both schedules run for learnWarmup before the measured phase, so its
// figures hold no transient from the switch to the open loop.
const (
	learnRate    = 50 // query submissions per second
	retrainEvery = time.Second
	learnTrees   = 2
	learnWarmup  = 2 * time.Second
)

// learnArgs are the learn daemon's flags on top of -model: a corpus
// seeded before timing, and only scheduled retrains.
func learnArgs(corpus string) []string {
	return []string{
		"-learn", corpus,
		"-trees", fmt.Sprint(learnTrees),
		"-retrain-after", "1000000000",
		"-no-drift-retrain",
	}
}

type retrainAnswer struct {
	Decision string `json:"decision"`
}

type modelsAnswer struct {
	Harvest struct {
		Errors int `json:"errors"`
	} `json:"harvest"`
}

// sleepUntil waits for t or ctx, reporting whether t was reached.
func sleepUntil(ctx context.Context, t time.Time) bool {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// runLearn is the learn workload: an open loop of query submissions at
// learnRate, each polled to done, beside an open loop of retrains every
// retrainEvery, on separate connections. Work scheduled during the
// warm-up is checked but not measured.
func runLearn(ctx context.Context, env *runEnv) error {
	qa := newAPI(env.d.base, 1)
	defer qa.close()
	ra := newAPI(env.d.base, 1)
	defer ra.close()
	order := queryOrder(env.seed)

	// Warm-up: one sequential pass fills the plan cache; its harvest
	// lands in the corpus before the first timed retrain.
	for i := range order {
		submitAndWait(qa, env.tally, order[i])
	}

	var mu sync.Mutex
	var retrainS []float64
	var queryLate, retrainLate []float64
	var wg sync.WaitGroup
	begin := time.Now()
	start := begin.Add(learnWarmup)
	end := start.Add(env.seconds)

	// Retrains are sent on their schedule even while an earlier one
	// runs, so a slow retrain shows in retrain_p50_s, not as a late
	// sender; the single connection makes such a retrain wait its turn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; ; j++ {
			due := begin.Add(retrainEvery/2 + time.Duration(j)*retrainEvery)
			if !due.Before(end) || !sleepUntil(ctx, due) {
				return
			}
			measured := !due.Before(start)
			if measured {
				retrainLate = append(retrainLate, ms(time.Since(due)))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				env.tally.attempt()
				var v retrainAnswer
				if err := ra.call(http.MethodPost, "/models/retrain", nil, http.StatusOK, &v); err != nil {
					env.tally.fail("retrain %d: %v", j, err)
					return
				}
				d := time.Since(due).Seconds()
				if v.Decision != "accepted" && v.Decision != "rejected" {
					env.tally.fail("retrain %d: decision %q", j, v.Decision)
					return
				}
				if measured {
					mu.Lock()
					retrainS = append(retrainS, d)
					mu.Unlock()
				}
			}()
		}
	}()

	period := time.Second / learnRate
	for k := 0; ; k++ {
		due := begin.Add(time.Duration(k) * period)
		if !due.Before(end) || !sleepUntil(ctx, due) {
			break
		}
		measured := !due.Before(start)
		if measured {
			if len(queryLate) == 0 {
				env.startMeasure()
			}
			queryLate = append(queryLate, ms(time.Since(due)))
		}
		q := order[k%len(order)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if submitAndWait(qa, env.tally, q) && measured {
				env.lat.add(ms(time.Since(due)))
				env.done.add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	env.endMeasure(elapsed, queryLate)

	// An open-loop sender that fell behind its schedule measured the
	// generator, not the daemon: the run fails.
	if l := tail(queryLate); l > ms(period) {
		env.tally.fail("query sender fell behind its schedule: late %.3f ms, limit %v", l, period)
	}
	if l := tail(retrainLate); l > ms(retrainEvery/4) {
		env.tally.fail("retrain sender fell behind its schedule: late %.3f ms, limit %v", l, retrainEvery/4)
	}

	var m modelsAnswer
	if err := qa.call(http.MethodGet, "/models", nil, http.StatusOK, &m); err != nil {
		return err
	}
	if m.Harvest.Errors != 0 {
		env.tally.fail("harvest reported %d errors", m.Harvest.Errors)
	}
	env.throughput("learn_qps", "queries/s")
	p50, err := percentile(retrainS, 50)
	if err != nil {
		return fmt.Errorf("retrain_p50_s: %w", err)
	}
	env.detail("retrain_p50_s", "s", p50.Value, p50.N)
	return env.latencies("learn")
}
