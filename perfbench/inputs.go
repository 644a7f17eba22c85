package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"progressest"
	"progressest/internal/exec"
	"progressest/internal/ingest"
	"progressest/internal/pipeline"
	"progressest/internal/workload"
)

// The daemon serves its default workload: TPC-H, 100 queries, scale
// 0.15, design 1, seed 1. The generator rebuilds the same workload
// in-process to record session traces and to drive the traced run.
var servedSpec = workload.Spec{
	Name: progressest.TPCH.String(), Kind: progressest.TPCH,
	Queries: 100, Scale: 0.15, Zipf: 1, Design: 1, Seed: 1,
}

const (
	// modelSeed is the workload seed the served selector is trained on,
	// deliberately not the served workload's.
	modelSeed = 2
	// modelTrees is the served selector's boosting iterations (the
	// paper's default).
	modelTrees = 200
	// corpusSeedSize is the example count the learn corpus holds before
	// timing starts.
	corpusSeedSize = 1500
	// snapsPerBatch is the snapshots per session observation batch.
	snapsPerBatch = 8
	// updateEvery is the daemon's default -every: one progress update
	// per this many counter snapshots.
	updateEvery = 8
)

// queryOrder is the seed's permutation of the served query indices;
// clients take indices from it in turn, cycling.
func queryOrder(seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(servedSpec.Queries)
}

// cachedModel returns the path of the served selector, training it on
// first use. The model depends on constants only, so every run and seed
// shares one file.
func cachedModel(cacheDir string) (string, error) {
	path := filepath.Join(cacheDir, fmt.Sprintf("selector-seed%d-trees%d.json", modelSeed, modelTrees))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	w, err := progressest.Open(progressest.Config{Dataset: progressest.TPCH, Seed: modelSeed})
	if err != nil {
		return "", err
	}
	examples, err := w.Harvest()
	if err != nil {
		return "", err
	}
	sel, err := progressest.TrainSelector(examples, progressest.SelectorConfig{Trees: modelTrees, Seed: modelSeed})
	if err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	if err := sel.Save(tmp); err != nil {
		return "", err
	}
	return path, os.Rename(tmp, path)
}

// cachedCorpus returns a corpus directory holding exactly corpusSeedSize
// examples harvested from workloads other than the served one, building
// it on first use. Callers copy it; it is never opened for writing.
func cachedCorpus(cacheDir string) (string, error) {
	dir := filepath.Join(cacheDir, fmt.Sprintf("corpus-%d", corpusSeedSize))
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	var examples []progressest.Example
	for seed := int64(modelSeed); len(examples) < corpusSeedSize; seed++ {
		w, err := progressest.Open(progressest.Config{Dataset: progressest.TPCH, Seed: seed})
		if err != nil {
			return "", err
		}
		exs, err := w.Harvest()
		if err != nil {
			return "", err
		}
		examples = append(examples, exs...)
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := progressest.ExportExamples(tmp, examples[:corpusSeedSize]); err != nil {
		return "", err
	}
	return dir, os.Rename(tmp, dir)
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// served is the in-process twin of the daemon's workload, with one
// recorded trace per query index.
type served struct {
	w      *workload.Workload
	traces []*exec.Trace
}

// buildServed rebuilds the daemon's workload and records one native
// trace per query — the counter streams an external engine would send.
func buildServed() (*served, error) {
	w, err := workload.Build(servedSpec)
	if err != nil {
		return nil, err
	}
	s := &served{w: w}
	for q, spec := range w.Queries {
		pl, err := w.Planner.Plan(spec)
		if err != nil {
			return nil, fmt.Errorf("plan query %d: %w", q, err)
		}
		pipes := pipeline.Decompose(pl)
		s.traces = append(s.traces, exec.RunDecomposed(w.DB, pl, pipes, exec.Options{}))
	}
	return s, nil
}

// session is one query's recording in wire form.
type session struct {
	query   int
	spec    []byte
	batches []sessionBatch
}

type sessionBatch struct {
	body  []byte
	snaps int
	done  bool
	// truth is the recorded query's true progress at the batch's last
	// snapshot (valid when snaps > 0).
	truth float64
	// servedTime is the virtual time of the update the daemon serves
	// once the batch applied; served is false while none is due yet.
	servedTime float64
	served     bool
}

// deliveryCounter counts the snapshots an ingest.Runner delivers.
type deliveryCounter struct {
	exec.BaseObserver
	n int
}

func (c *deliveryCounter) OnSnapshot(exec.Snapshot)      { c.n++ }
func (c *deliveryCounter) OnSnapshots(b []exec.Snapshot) { c.n += len(b) }

// recordSessions converts every recorded trace into a session-open spec
// and its observation batches. It also replays each session through an
// ingest.Runner delivering in batches of updateEvery, as the daemon's
// does, to learn which update is current after each batch: the monitor
// emits one at every updateEvery-th delivered snapshot, and the runner
// holds back snapshots until updateEvery are pending or a pipeline
// starts.
func (s *served) recordSessions() ([]*session, error) {
	var out []*session
	for q, tr := range s.traces {
		spec := ingest.SpecFromTrace(tr, servedSpec.Name, s.w.QueryFamily(q))
		specJSON, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		model, err := ingest.Build(spec)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", q, err)
		}
		var delivered deliveryCounter
		runner := ingest.NewRunner(model, &delivered, updateEvery, 0)
		sess := &session{query: q, spec: specJSON}
		idx := -1 // index of the last snapshot sent so far
		for _, b := range ingest.RecordBatches(tr, snapsPerBatch) {
			body, err := json.Marshal(b)
			if err != nil {
				return nil, err
			}
			if err := runner.Apply(&b); err != nil {
				return nil, fmt.Errorf("query %d: %w", q, err)
			}
			sb := sessionBatch{body: body, done: b.Done}
			for _, ev := range b.Events {
				if ev.Snapshot != nil {
					sb.snaps++
				}
			}
			idx += sb.snaps
			if sb.snaps > 0 {
				sb.truth = tr.TrueProgress(idx)
			}
			if last := delivered.n/updateEvery*updateEvery - 1; last >= 0 {
				sb.servedTime, sb.served = tr.Snapshots[last].Time, true
			}
			sess.batches = append(sess.batches, sb)
		}
		if idx+1 != len(tr.Snapshots) {
			return nil, fmt.Errorf("query %d: recorded %d snapshots of %d", q, idx+1, len(tr.Snapshots))
		}
		out = append(out, sess)
	}
	return out, nil
}
