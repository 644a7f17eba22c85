// Command perfbench is progressest's end-to-end benchmark. It starts a
// progressd built from the same source as a child process on a loopback
// port, drives one workload against it from a seed, checks every answer,
// and prints the metrics. With -trace 1 it then feeds the same inputs
// through each layer's public functions in-process, records spans around
// those calls, and prints per-layer metrics instead.
//
// Run it through run.sh from the repository root, which builds both
// binaries:
//
//	bash perfbench/run.sh --workload native --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every metric is also printed
// on its own line before it, by name, with unit and sample count. The
// exit code is nonzero on any failed check or error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupLaunches is how many times a run starts the daemon to time its
// set-up; setup_s is their median.
const setupLaunches = 11

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	bin      string // progressd binary
	work     string // build and scratch directory
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// runEnv is the state a workload function shares with bench.
type runEnv struct {
	options
	d        *daemon
	tally    *tally
	sessions []*session // recorded sessions by query index (sessions only)

	e2e     map[string]metric // the end-to-end metrics, named generically
	details map[string]metric // every metric under its workload's name
	layers  map[string]metric // per-layer metrics (traced runs)

	// done counts completed work and lat holds latencies (ms) over the
	// measured phase.
	done, lat *series
	cpuStart  time.Duration
	engine    engineStats
}

func (env *runEnv) detail(name, unit string, v float64, n int) {
	env.details[name] = metric{Value: v, Unit: unit, n: n}
}

func (env *runEnv) layer(name, unit string, v float64, n int) {
	env.layers[name] = metric{Value: v, Unit: unit, n: n}
}

// throughput records the rate of the work counted in env.done under the
// workload's own name and as the generic ops_per_s.
func (env *runEnv) throughput(name, unit string) {
	v, n := env.done.rate()
	env.detail(name, unit, v, n)
	env.e2e["ops_per_s"] = metric{Value: v, Unit: "1/s", n: n}
}

// latencies records the median and p99 of env.lat under prefix and as
// the generic p50_ms and p99_ms.
func (env *runEnv) latencies(prefix string) error {
	for _, p := range []struct {
		q    float64
		name string
	}{{50, "p50_ms"}, {90, "p90_ms"}, {99, "p99_ms"}} {
		v, err := env.lat.percentile(p.q)
		if err != nil {
			return fmt.Errorf("%s_%s: %w", prefix, p.name, err)
		}
		env.detail(prefix+"_"+p.name, "ms", v.Value, v.N)
		if p.q != 90 {
			env.e2e[p.name] = metric{Value: v.Value, Unit: "ms", n: v.N}
		}
	}
	return nil
}

// cpuTime is the generator process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (env *runEnv) startMeasure() {
	env.done, env.lat = newSeries(), newSeries()
	env.cpuStart = cpuTime()
}

// endMeasure records the generator's health over the measured phase:
// its share of the machine's CPU and how late it issued requests.
func (env *runEnv) endMeasure(elapsed time.Duration, late []float64) {
	cpu := cpuTime() - env.cpuStart
	env.layer("loadgen.cpu_fraction", "ratio", cpu.Seconds()/(elapsed.Seconds()*float64(runtime.NumCPU())), 1)
	env.layer("loadgen.late_p99_ms", "ms", tail(late), len(late))
}

var workloads = map[string]func(context.Context, *runEnv) error{
	"native":   runNative,
	"sessions": runSessions,
	"learn":    runLearn,
}

func main() {
	var o options
	var secs, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: native, sessions or learn")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&secs, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: print per-layer metrics from a traced in-process run")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin/progressd", "progressd binary")
	flag.StringVar(&o.work, "work", ".bench_build", "build, cache and scratch directory")
	flag.Parse()
	o.seconds = time.Duration(secs) * time.Second
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || secs < 1 || trace < 0 || trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload native|sessions|learn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	env, err := bench(ctx, o)
	cancel()
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	attempted, failed := env.tally.counts()
	env.detail("failed_ratio", "ratio", float64(failed)/float64(max(attempted, 1)), attempted)
	metrics := env.e2e
	if o.trace {
		metrics = env.layers
	}
	printMetrics(env.details, env.layers)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if failed > 0 {
		os.Exit(1)
	}
}

// printMetrics prints one line per metric: name, value, unit, samples.
func printMetrics(sets ...map[string]metric) {
	for _, set := range sets {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := set[name]
			fmt.Printf("%-32s %16.6f %-12s n=%d\n", name, m.Value, m.Unit, m.n)
		}
	}
}

// bench prepares the workload's inputs, times daemon set-up, runs the
// workload and, with tracing, the in-process traced run. The daemon is
// stopped on every path.
func bench(ctx context.Context, o options) (*runEnv, error) {
	env := &runEnv{
		options: o, tally: &tally{},
		e2e: map[string]metric{}, details: map[string]metric{}, layers: map[string]metric{},
	}
	if _, err := os.Stat(o.bin); err != nil {
		return nil, fmt.Errorf("progressd binary: %w", err)
	}
	cache := filepath.Join(o.work, "cache")
	if err := os.MkdirAll(filepath.Join(o.work, "tmp"), 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cache, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(o.work, "tmp"), o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// The generator's own preparation: none of it is timed.
	model, err := cachedModel(cache)
	if err != nil {
		return nil, fmt.Errorf("train served model: %w", err)
	}
	var corpus string
	if o.workload == "learn" || o.trace {
		if corpus, err = cachedCorpus(cache); err != nil {
			return nil, fmt.Errorf("seed corpus: %w", err)
		}
	}
	var srv *served
	if o.workload == "sessions" || o.trace {
		if srv, err = buildServed(); err != nil {
			return nil, err
		}
		if env.sessions, err = srv.recordSessions(); err != nil {
			return nil, err
		}
	}

	args := func(i int) ([]string, error) {
		a := []string{"-model", model}
		if o.workload != "learn" {
			return a, nil
		}
		dir := filepath.Join(tmp, fmt.Sprintf("corpus-%d", i))
		return append(a, learnArgs(dir)...), copyDir(corpus, dir)
	}
	var setup []float64
	for i := 0; i < setupLaunches; i++ {
		a, err := args(i)
		if err != nil {
			return nil, err
		}
		d, took, err := launch(ctx, o.bin, a)
		if err != nil {
			return nil, err
		}
		setup = append(setup, took.Seconds())
		if i < setupLaunches-1 {
			d.stop()
			continue
		}
		env.d = d
	}
	defer env.d.stop()
	env.e2e["setup_s"] = metric{Value: median(setup), Unit: "s", n: len(setup)}
	env.details["setup_s"] = env.e2e["setup_s"]

	if err := workloads[o.workload](ctx, env); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("run cut short: %w", ctx.Err())
	}
	a := newAPI(env.d.base, 1)
	st, err := checkIdle(a)
	a.close()
	if err != nil {
		env.tally.fail("%v", err)
	}
	rss, err := env.d.vmHWMMiB()
	if err != nil {
		return nil, fmt.Errorf("peak rss: %w", err)
	}
	env.d.stop()
	env.e2e["peak_rss_mb"] = metric{Value: rss, Unit: "MiB", n: 1}
	env.details["peak_rss_mb"] = env.e2e["peak_rss_mb"]
	env.layer("engine.queue_wait_p99_ms", "ms", st.QueueWait.P99MS, st.QueueWait.Samples)
	env.layer("engine.rejected", "count", float64(st.Rejected), 1)
	env.layer("engine.shed", "count", float64(st.ShedTotal), 1)

	if o.trace {
		if err := traced(ctx, env, srv, model, corpus, tmp); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	if ctx.Err() != nil {
		return nil, errors.New("run exceeded its time limit")
	}
	return env, nil
}
