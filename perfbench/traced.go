package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"progressest"
	"progressest/internal/exec"
	"progressest/internal/features"
	"progressest/internal/feedback"
	"progressest/internal/ingest"
	"progressest/internal/mart"
	"progressest/internal/pipeline"
	"progressest/internal/progress"
	"progressest/internal/selection"
)

// span is one timed call of the traced run.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A nil tracer records nothing, so the
// untraced pass runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, req, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// byName sums, per span name, the durations, the self times (duration
// minus the union of the children) and the span counts.
func (t *tracer) byName() (total, self map[string]float64, count map[string]int) {
	children := make([][]interval, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	total, self, count = map[string]float64{}, map[string]float64{}, map[string]int{}
	for i, s := range t.spans {
		total[s.Name] += float64(s.End - s.Start)
		self[s.Name] += float64(selfTime(interval{s.Start, s.End}, children[i]))
		count[s.Name]++
	}
	return total, self, count
}

// heapAllocs reads the process's cumulative heap allocations.
func heapAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// reselectMarkers are the driver fractions at which the live monitor
// re-picks an estimator.
var reselectMarkers = func() []float64 {
	out := make([]float64, len(features.Markers))
	for i, x := range features.Markers {
		out[i] = float64(x) / 100
	}
	return out
}()

// pickObserver feeds an OnlineView and re-picks each pipeline's
// estimator at marker crossings, as the live monitor does, recording a
// span per pick.
type pickObserver struct {
	view      *progress.OnlineView
	sel       *selection.Selector
	t         *tracer
	req, span int
	nextMark  []int
	before    []int
	picks     int
}

func (o *pickObserver) pick(p *progress.OnlinePipeline) {
	s := o.t.begin("selection", o.req, o.span)
	o.sel.PickOnline(p)
	o.t.end(s)
	o.picks++
}

func (o *pickObserver) OnPipelineStart(st exec.PipelineStart) {
	o.view.OnPipelineStart(st)
	o.pick(o.view.Pipelines[st.Pipe])
}

func (o *pickObserver) OnSnapshot(s exec.Snapshot) { o.OnSnapshots([]exec.Snapshot{s}) }

func (o *pickObserver) OnSnapshots(batch []exec.Snapshot) {
	for pi, p := range o.view.Pipelines {
		o.before[pi] = p.NumObs()
	}
	o.view.OnSnapshots(batch)
	for pi, p := range o.view.Pipelines {
		if !p.Started || p.Ended {
			continue
		}
		crossed := false
		for i := o.before[pi]; i < p.NumObs(); i++ {
			for o.nextMark[pi] < len(reselectMarkers) && p.DriverFraction(i) >= reselectMarkers[o.nextMark[pi]] {
				o.nextMark[pi]++
				crossed = true
			}
		}
		if crossed {
			o.pick(p)
		}
	}
}

func (o *pickObserver) OnPipelineEnd(pipe int, end float64) { o.view.OnPipelineEnd(pipe, end) }
func (o *pickObserver) OnThin()                             { o.view.OnThin() }
func (o *pickObserver) OnDone(tr *exec.Trace)               { o.view.OnDone(tr) }

// layerSegmentBytes rotates the layer store's corpus segments small, so
// the harvest seals segments and repeated snapshots reach the decode
// cache. The daemon's 4 MiB default would keep this corpus in one
// unsealed segment, which the cache never holds.
const layerSegmentBytes = 64 << 10

// tracedRun holds the in-process twins of the daemon and the layer
// objects the traced run calls.
type tracedRun struct {
	env      *runEnv
	srv      *served
	order    []int
	eng      *progressest.Engine
	handler  *progressest.Server
	learning *progressest.Learning
	sel      *selection.Selector
	store    *feedback.ExampleStore
	harv     *feedback.Harvester

	// Counters summed over the traced pass.
	progressBytes, wireBytes                   int
	execAllocs, execBytes, progressAllocs      uint64
	snapshots, picks, examples, batches, plans int
	planned                                    map[int]bool
}

// traced is the per-layer run. It rebuilds the daemon in-process and
// sends the workload's request stream through it one request at a time:
// each request's native root call (Engine.StartTagged, draining Updates,
// Wait) and its session root call (Server.ServeHTTP on a recorder), then
// the same request's inputs through each layer's public function. learn
// attaches the learning loop and adds Learning.Retrain roots. A warm-up
// pass comes first; the traced pass runs each request's root calls once
// untraced as well, and the two give the tracing overhead.
func traced(ctx context.Context, env *runEnv, srv *served, model, corpus, tmp string) error {
	r := &tracedRun{env: env, srv: srv, order: queryOrder(env.seed), planned: map[int]bool{}}
	sel, err := progressest.LoadSelector(model)
	if err != nil {
		return err
	}
	if r.sel, err = selection.Load(model); err != nil {
		return err
	}
	w, err := progressest.Open(progressest.Config{Dataset: progressest.TPCH})
	if err != nil {
		return err
	}
	opts := progressest.MonitorOptions{UpdateEvery: updateEvery}
	if env.workload == "learn" {
		dir := filepath.Join(tmp, "traced-corpus")
		if err := copyDir(corpus, dir); err != nil {
			return err
		}
		r.learning, err = progressest.OpenLearning(progressest.LearningConfig{
			Dir:                 dir,
			Selector:            progressest.SelectorConfig{Trees: learnTrees, Seed: 1},
			MinNewExamples:      1 << 30,
			SeedSelector:        sel,
			DisableDriftRetrain: true,
		})
		if err != nil {
			return err
		}
		defer r.learning.Close()
		opts.Learning = r.learning
	} else {
		opts.Selector = sel
	}
	r.eng = progressest.NewEngine(w, progressest.EngineConfig{Shards: 1, MaxLivePerShard: 64, QueueDepth: 64}, opts)
	r.handler = progressest.NewEngineServer(r.eng)
	defer r.handler.Close()

	fdir := filepath.Join(tmp, "traced-feedback")
	if err := copyDir(corpus, fdir); err != nil {
		return err
	}
	if r.store, err = feedback.OpenStore(fdir, feedback.StoreOptions{MaxSegmentBytes: layerSegmentBytes}); err != nil {
		return err
	}
	defer r.store.Close()
	r.harv = feedback.NewHarvester(r.store, 0, nil, nil)

	n := len(r.order)
	for i := 0; i < n && ctx.Err() == nil; i++ { // warm-up
		r.roots(ctx, i, nil)
	}

	// Each request's root calls run untraced and then traced, back to
	// back, so drift in machine speed cancels out of the overhead.
	var untracedNs float64
	t := &tracer{t0: time.Now()}
	rt := readRuntime()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		t0 := time.Now()
		r.roots(ctx, i, nil)
		untracedNs += float64(time.Since(t0))
		r.roots(ctx, i, t)
		r.layers(i, t)
		if r.learning != nil && (i+1)%(n/4) == 0 {
			r.retrain(i, t)
		}
	}
	for k := 0; k < 3; k++ {
		if err := r.fit(n+k, t); err != nil {
			return err
		}
	}
	rtEnd := readRuntime()
	if ctx.Err() != nil {
		return ctx.Err()
	}

	path := filepath.Join(env.work, fmt.Sprintf("trace-%s-seed%d.jsonl", env.workload, env.seed))
	if err := t.write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(t.spans), path)
	r.report(t, untracedNs, rt, rtEnd)
	return nil
}

// roots runs request i's native and session root calls.
func (r *tracedRun) roots(ctx context.Context, i int, t *tracer) {
	q := r.order[i%len(r.order)]
	r.env.tally.attempt()
	root := t.begin("native", i, -1)
	s := t.begin("server.submit", i, root)
	m, err := r.eng.StartTagged(ctx, q, "")
	t.end(s)
	if err != nil {
		r.env.tally.fail("traced start query %d: %v", q, err)
		t.end(root)
		return
	}
	// The engine plans a query index on its first start on a replica and
	// serves the cached plan after; count those first starts.
	if !r.planned[q] {
		r.planned[q] = true
		if t != nil {
			r.plans++
		}
	}
	prevSeq := -1
	for u := range m.Updates {
		s := t.begin("server.progress", i, root)
		body, err := json.Marshal(u)
		t.end(s)
		if t != nil {
			r.progressBytes += len(body)
		}
		var got progressUpdate
		if err == nil {
			err = json.Unmarshal(body, &got)
		}
		if err == nil {
			err = checkUpdate(&got, prevSeq)
		}
		if err != nil {
			r.env.tally.fail("traced query %d: %v", q, err)
		}
		prevSeq = got.Seq
	}
	if _, err := m.Wait(); err != nil {
		r.env.tally.fail("traced query %d: %v", q, err)
	}
	t.end(root)

	r.env.tally.attempt()
	rec := r.env.sessions[q]
	root = t.begin("sessions", i, -1)
	defer t.end(root)
	var open sessionState
	if err := r.serve(t, "server.open", i, root, http.MethodPost, "/sessions", rec.spec, http.StatusCreated, &open); err != nil {
		r.env.tally.fail("traced session for query %d: %v", q, err)
		return
	}
	for bi, b := range rec.batches {
		var ack, p sessionState
		err := r.serve(t, "server.observe", i, root, http.MethodPost, "/sessions/"+open.ID+"/observations", b.body, http.StatusOK, &ack)
		if err == nil {
			err = r.serve(t, "server.progress", i, root, http.MethodGet, "/sessions/"+open.ID+"/progress", nil, http.StatusOK, &p)
		}
		if err == nil && b.done && p.State != "completed" {
			err = fmt.Errorf("ended %q, want completed", p.State)
		}
		if err != nil {
			r.env.tally.fail("traced session %s batch %d: %v", open.ID, bi, err)
			return
		}
	}
}

// serve sends one request through Server.ServeHTTP inside a span.
func (r *tracedRun) serve(t *tracer, name string, req, parent int, method, path string, body []byte, want int, out any) error {
	rec := httptest.NewRecorder()
	hr := httptest.NewRequest(method, path, bytes.NewReader(body))
	s := t.begin(name, req, parent)
	r.handler.ServeHTTP(rec, hr)
	t.end(s)
	if t != nil && name == "server.progress" {
		r.progressBytes += rec.Body.Len()
	}
	if rec.Code != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, rec.Code, want, rec.Body.Bytes())
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

// layers passes request i's inputs through each layer's public function.
func (r *tracedRun) layers(i int, t *tracer) {
	q := r.order[i%len(r.order)]
	w := r.srv.w
	root := t.begin("layers", i, -1)
	defer t.end(root)

	s := t.begin("optimizer", i, root)
	pl, err := w.Planner.Plan(w.Queries[q])
	var pipes *pipeline.Decomposition
	if err == nil {
		pipes = pipeline.Decompose(pl)
	}
	t.end(s)
	if err != nil {
		r.env.tally.fail("plan query %d: %v", q, err)
		return
	}

	o0, b0 := heapAllocs()
	s = t.begin("exec", i, root)
	tr := exec.RunDecomposed(w.DB, pl, pipes, exec.Options{})
	t.end(s)
	o1, b1 := heapAllocs()
	r.execAllocs += o1 - o0
	r.execBytes += b1 - b0
	r.snapshots += len(tr.Snapshots)
	if want := len(r.srv.traces[q].Snapshots); len(tr.Snapshots) != want {
		r.env.tally.fail("query %d: %d snapshots, recorded run had %d", q, len(tr.Snapshots), want)
	}

	s = t.begin("progress", i, root)
	view := progress.NewOnlineView(pl, pipes)
	view.Reserve = exec.DefaultTargetObservations + 1
	np := len(pipes.Pipelines)
	obs := &pickObserver{view: view, sel: r.sel, t: t, req: i, span: s, nextMark: make([]int, np), before: make([]int, np)}
	exec.Replay(tr, obs, updateEvery)
	t.end(s)
	o2, _ := heapAllocs()
	r.progressAllocs += o2 - o1
	r.picks += obs.picks

	rec := r.env.sessions[q]
	s = t.begin("ingest.open", i, root)
	spec, err := ingest.DecodeSpec(bytes.NewReader(rec.spec))
	var model *ingest.Model
	if err == nil {
		model, err = ingest.Build(spec)
	}
	t.end(s)
	if err != nil {
		r.env.tally.fail("ingest open query %d: %v", q, err)
		return
	}
	runner := ingest.NewRunner(model, exec.BaseObserver{}, updateEvery, 0)
	for _, b := range rec.batches {
		s = t.begin("ingest.decode", i, root)
		batch, err := ingest.DecodeBatch(b.body)
		t.end(s)
		if err == nil {
			s = t.begin("ingest.apply", i, root)
			err = runner.Apply(batch)
			if err == nil && batch.Done {
				_, err = runner.Finish(batch.Ends)
			}
			t.end(s)
		}
		if err != nil {
			r.env.tally.fail("ingest query %d: %v", q, err)
			return
		}
		r.wireBytes += len(b.body)
		r.batches++
	}

	s = t.begin("feedback.harvest", i, root)
	n, err := r.harv.HarvestTrace(tr, servedSpec.Name, w.QueryFamily(q), q)
	t.end(s)
	if err != nil {
		r.env.tally.fail("harvest query %d: %v", q, err)
	}
	r.examples += n
}

// retrain is the learn workload's retrain root: Learning.Retrain.
func (r *tracedRun) retrain(req int, t *tracer) {
	r.env.tally.attempt()
	s := t.begin("retrain", req, -1)
	v, err := r.learning.Retrain()
	t.end(s)
	if err == nil && v.Decision != "accepted" && v.Decision != "rejected" {
		err = fmt.Errorf("decision %q", v.Decision)
	}
	if err != nil {
		r.env.tally.fail("traced retrain: %v", err)
	}
}

// fit snapshots the layer store's corpus and fits a selector on it, as a
// retrain does.
func (r *tracedRun) fit(req int, t *tracer) error {
	root := t.begin("fit", req, -1)
	defer t.end(root)
	s := t.begin("feedback.snapshot", req, root)
	exs, err := r.store.Snapshot()
	t.end(s)
	if err != nil {
		return fmt.Errorf("corpus snapshot: %w", err)
	}
	s = t.begin("mart.fit", req, root)
	_, err = selection.Train(exs, selection.Config{
		Kinds: progress.ExtendedKinds(), Dynamic: true,
		Mart: mart.Options{Trees: learnTrees, Seed: 1},
	})
	t.end(s)
	return err
}

// runtimeSample is the process-wide GC and allocation totals.
type runtimeSample struct {
	at         time.Time
	gcCPU, cpu float64
	allocBytes uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{time.Now(), s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()}
}

// report turns the spans and counters into the per-layer metrics.
func (r *tracedRun) report(t *tracer, untracedNs float64, rt, rtEnd runtimeSample) {
	total, self, count := t.byName()
	env := r.env
	per := func(name string, scale float64) float64 { return total[name] / float64(max(count[name], 1)) / scale }
	queries := count["native"]
	q := float64(max(queries, 1))

	env.layer("server.submit_us", "us", per("server.submit", 1e3), count["server.submit"])
	env.layer("server.progress_us", "us", per("server.progress", 1e3), count["server.progress"])
	env.layer("server.progress_bytes", "bytes", float64(r.progressBytes)/float64(max(count["server.progress"], 1)), count["server.progress"])
	env.layer("server.observe_us", "us", per("server.observe", 1e3), count["server.observe"])
	env.layer("server.open_us", "us", per("server.open", 1e3), count["server.open"])
	env.layer("optimizer.plan_us", "us", per("optimizer", 1e3), count["optimizer"])
	env.layer("optimizer.plans_per_query", "count", float64(r.plans)/q, queries)
	env.layer("exec.run_us_per_query", "us", per("exec", 1e3), count["exec"])
	env.layer("exec.allocs_per_query", "count", float64(r.execAllocs)/q, count["exec"])
	env.layer("exec.bytes_per_query", "bytes", float64(r.execBytes)/q, count["exec"])
	env.layer("exec.snapshots_per_query", "count", float64(r.snapshots)/q, count["exec"])
	env.layer("progress.feed_ns_per_snapshot", "ns", self["progress"]/float64(max(r.snapshots, 1)), r.snapshots)
	env.layer("progress.allocs_per_query", "count", float64(r.progressAllocs)/q, count["progress"])
	env.layer("selection.pick_us", "us", per("selection", 1e3), count["selection"])
	env.layer("selection.picks_per_query", "count", float64(r.picks)/q, count["progress"])
	env.layer("ingest.open_us", "us", per("ingest.open", 1e3), count["ingest.open"])
	env.layer("ingest.decode_us_per_batch", "us", per("ingest.decode", 1e3), count["ingest.decode"])
	env.layer("ingest.apply_us_per_batch", "us", per("ingest.apply", 1e3), count["ingest.apply"])
	env.layer("ingest.wire_bytes_per_snapshot", "bytes", float64(r.wireBytes)/float64(max(r.snapshots, 1)), r.batches)
	env.layer("feedback.harvest_us_per_query", "us", per("feedback.harvest", 1e3), count["feedback.harvest"])
	env.layer("feedback.examples_per_query", "count", float64(r.examples)/q, count["feedback.harvest"])
	env.layer("feedback.snapshot_ms", "ms", per("feedback.snapshot", 1e6), count["feedback.snapshot"])
	st := r.store.Stats()
	env.layer("feedback.cache_hit_ratio", "ratio", float64(st.CacheHits)/float64(max(st.CacheHits+st.CacheMisses, 1)), int(st.CacheHits+st.CacheMisses))
	env.layer("mart.fit_s", "s", per("mart.fit", 1e9), count["mart.fit"])
	wall := rtEnd.at.Sub(rt.at).Seconds()
	env.layer("runtime.gc_cpu_fraction", "ratio", (rtEnd.gcCPU-rt.gcCPU)/max(rtEnd.cpu-rt.cpu, 1e-9), 1)
	env.layer("runtime.alloc_mb_per_s", "MiB/s", float64(rtEnd.allocBytes-rt.allocBytes)/(1<<20)/wall, 1)
	env.layer("trace.overhead_ratio", "ratio", (total["native"]+total["sessions"])/untracedNs-1, queries)
	if r.learning != nil {
		env.detail("traced.retrain_s", "s", per("retrain", 1e9), count["retrain"])
	}

	// Self time of every span name, for where-did-the-time-go reading.
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		env.detail("self."+name+"_us", "us", self[name]/float64(count[name])/1e3, count[name])
	}
}
