package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"
)

// tally counts attempted operations and failed ones. A failure is an
// error, a refusal (429/503) or a failed output check; the first few are
// printed to stderr.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

func (t *tally) attempt() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.failed++
	n := t.failed
	t.mu.Unlock()
	if n <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
	}
}

func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// api is an HTTP client for one daemon over at most conns connections.
type api struct {
	base   string
	client *http.Client
}

func newAPI(base string, conns int) *api {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}
	return &api{base: base, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (a *api) close() { a.client.CloseIdleConnections() }

// call sends one request, requires wantStatus and decodes the JSON
// answer into out when out is non-nil.
func (a *api) call(method, path string, body []byte, wantStatus int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("%s %s: status %d, want %d: %s",
			method, path, resp.StatusCode, wantStatus, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return nil
}

// Wire forms the generator reads; field names follow the daemon's JSON.
type pipelineProgress struct {
	Done     bool    `json:"done"`
	Estimate float64 `json:"estimate"`
}

type progressUpdate struct {
	Seq          int                `json:"seq"`
	Time         float64            `json:"time"`
	Query        float64            `json:"query"`
	Pipelines    []pipelineProgress `json:"pipelines"`
	Done         bool               `json:"done"`
	TrueProgress float64            `json:"true_progress"`
}

type queryProgress struct {
	ID     string          `json:"id"`
	Done   bool            `json:"done"`
	Update *progressUpdate `json:"update"`
}

type submitted struct {
	ID string `json:"id"`
}

type sessionState struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Added  int             `json:"added"`
	Update *progressUpdate `json:"update"`
}

type engineStats struct {
	Shards []struct {
		Live int `json:"live"`
	} `json:"shards"`
	Queued    int   `json:"queued"`
	Rejected  int64 `json:"rejected"`
	ShedTotal int64 `json:"shed_total"`
	QueueWait struct {
		Samples int     `json:"samples"`
		P99MS   float64 `json:"p99_ms"`
	} `json:"queue_wait"`
}

// checkUpdate validates one progress update against the serving
// invariants: estimates in [0,1], true progress -1 until the single done
// update, which reports query 1 with every pipeline done. prevSeq is the
// last seq seen for the same query (-1 before any).
func checkUpdate(u *progressUpdate, prevSeq int) error {
	if u.Seq < prevSeq {
		return fmt.Errorf("seq went back from %d to %d", prevSeq, u.Seq)
	}
	if u.Query < 0 || u.Query > 1 {
		return fmt.Errorf("query estimate %g outside [0,1]", u.Query)
	}
	for i, p := range u.Pipelines {
		if p.Estimate < 0 || p.Estimate > 1 {
			return fmt.Errorf("pipeline %d estimate %g outside [0,1]", i, p.Estimate)
		}
	}
	if !u.Done {
		if u.TrueProgress != -1 {
			return fmt.Errorf("true_progress %g before done", u.TrueProgress)
		}
		return nil
	}
	if u.Query != 1 || u.TrueProgress != 1 {
		return fmt.Errorf("done update has query %g, true_progress %g", u.Query, u.TrueProgress)
	}
	for i, p := range u.Pipelines {
		if !p.Done {
			return fmt.Errorf("done update has pipeline %d not done", i)
		}
	}
	return nil
}

// checkIdle verifies the daemon holds no queued or live work.
func checkIdle(a *api) (engineStats, error) {
	var st engineStats
	if err := a.call(http.MethodGet, "/engine/stats", nil, http.StatusOK, &st); err != nil {
		return st, err
	}
	live := 0
	for _, s := range st.Shards {
		live += s.Live
	}
	if st.Queued != 0 || live != 0 {
		return st, fmt.Errorf("engine not idle after the run: %d queued, %d live", st.Queued, live)
	}
	return st, nil
}
