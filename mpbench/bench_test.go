package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"metaprobe/internal/queries"
	"metaprobe/internal/server"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // samples 991..1000 lie beyond
		{999, 0.99, 0, false},   // only 9 beyond
		{100, 0.90, 90, true},
		{99, 0.90, 0, false},
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		got, ok := tailPercentile(sorted(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("n=%d p=%v: got (%v, %v), want (%v, %v)", c.n, c.p, got, ok, c.want, c.ok)
		}
		if ok {
			beyond := 0
			for _, v := range sorted(c.n) {
				if v > got {
					beyond++
				}
			}
			if beyond < minTail {
				t.Errorf("n=%d p=%v: %d samples beyond the reported percentile", c.n, c.p, beyond)
			}
		}
	}
}

// fakeDaemon answers every /v1/select with a fixed full-tier answer.
func fakeDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.SelectResponse{Tier: "full", Databases: []string{"a", "b", "c"}})
	}))
	t.Cleanup(srv.Close)
	return srv
}

// A generator stall must be charged to the requests that were due
// during it: latency runs from the due time, not from the late send.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	srv := fakeDaemon(t)
	const stall = 60 * time.Millisecond
	var calls atomic.Int64
	g := &loadgen{
		w:       workload{rate: 1000, zipf: 1},
		c:       newClient(strings.TrimPrefix(srv.URL, "http://"), 2, false, nil),
		pool:    []queries.Query{{Terms: []string{"breast", "cancer"}}},
		seed:    1,
		measure: 50 * time.Millisecond,
		probes:  &probeCounters{},
		sleep: func(d time.Duration) {
			if calls.Add(1) == 3 {
				d += stall
			}
			time.Sleep(d)
		},
	}
	defer g.c.close()
	res, err := g.open()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.answers) != 50 {
		t.Fatalf("%d answers, want 50", len(res.answers))
	}
	stalled := -1
	for i, a := range res.answers {
		if a.err != nil {
			t.Fatalf("request %d: %v", i, a.err)
		}
		if a.latency < a.lag {
			t.Errorf("request %d: latency %v shorter than its send lag %v", i, a.latency, a.lag)
		}
		if stalled < 0 && a.lag >= stall/2 {
			stalled = i
		}
	}
	if stalled < 0 {
		t.Fatal("no request was sent late")
	}
	// The stalled request and the ones due while the generator slept
	// all carry the stall in their latency.
	for i := stalled; i < stalled+10 && i < len(res.answers); i++ {
		if got := res.answers[i].latency; got < stall/2 {
			t.Errorf("request %d, due during the stall: latency %v, want at least %v", i, got, stall/2)
		}
	}
}

func TestMissingMetricFailsTheRun(t *testing.T) {
	for _, trace := range []bool{false, true} {
		declared, err := declaredMetrics("../BENCHMARK.json", trace)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]metric)
		for name, unit := range declared {
			got[name] = metric{Value: 1, Unit: unit}
		}
		if err := checkComplete(got, declared); err != nil {
			t.Fatalf("trace=%v: complete output rejected: %v", trace, err)
		}
		for name := range declared {
			partial := make(map[string]metric)
			for k, v := range got {
				if k != name {
					partial[k] = v
				}
			}
			err := checkComplete(partial, declared)
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Fatalf("trace=%v: output without %s: error %v, want one naming it", trace, name, err)
			}
			break
		}
		for name, unit := range declared {
			bad := map[string]metric{}
			for k, v := range got {
				bad[k] = v
			}
			bad[name] = metric{Value: math.NaN(), Unit: unit}
			if err := checkComplete(bad, declared); err == nil {
				t.Fatalf("trace=%v: NaN %s accepted", trace, name)
			}
			break
		}
	}
}

// A short run of each workload in which one answer is altered after
// it arrived: the answer checks must catch exactly that one.
func TestAlteredAnswerIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon")
	}
	for _, w := range workloads(2) {
		t.Run(w.name, func(t *testing.T) {
			if raceEnabled && w.name != "health-http" {
				// The open loop's rate sheds and the swap count is
				// not reached at race-detector speed.
				t.Skip("needs full speed")
			}
			var altered string
			res, err := run(config{
				workload: w.name,
				seed:     7,
				seconds:  2,
				boots:    1,
				spec:     "../BENCHMARK.json",
				out:      t.TempDir(),
				tamper: func(answers []answer) {
					// Prefer an answer the reference loop must match
					// exactly: under online refinement, the first one
					// after a swap.
					pick := -1
					for i, a := range answers {
						if a.err == nil && a.window >= 0 && (!w.onlineRefinement || a.swappedTo >= 0) {
							pick = i
							break
						}
					}
					if pick < 0 {
						t.Fatal("no answer to alter")
					}
					r := *answers[pick].resp
					r.Certainty = math.Nextafter(r.Certainty, 0)
					answers[pick].resp = &r
					altered = r.Databases[0]
				},
			})
			// Two seconds cannot fill every percentile window; the
			// missing metrics fail the run, the answer checks still ran.
			if res == nil {
				t.Fatal(err)
			}
			if altered == "" {
				t.Fatal("tamper hook did not run")
			}
			if res.Failed != 1 {
				t.Fatalf("%d failed operations of %d, want exactly the altered one", res.Failed, res.Attempted)
			}
		})
	}
}

// A short traced run reports every per-layer figure the layer pass and
// the load phase produce, with layer times summing to the selection's
// wall time, and writes its spans out.
func TestTracedRunReportsLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon")
	}
	out := t.TempDir()
	res, err := run(config{workload: "health-http", seed: 3, seconds: 1, boots: 1, trace: true,
		spec: "../BENCHMARK.json", out: out})
	if res == nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || !res.Correct {
		t.Fatalf("traced run: %d failed, correct %v", res.Failed, res.Correct)
	}
	for _, name := range []string{"core.rank_ms_per_selection", "core.allocs_per_selection",
		"server.handler_ms_p50", "hidden.searches_per_selection", "setup.train_s"} {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("traced run lacks %s", name)
		}
	}
	if u := res.Metrics["core.unattributed_share"].Value; math.Abs(u) > unattributedTolerance {
		t.Errorf("unattributed share %v", u)
	}
	if fi, err := os.Stat(filepath.Join(out, "spans-health-http.jsonl")); err != nil || fi.Size() == 0 {
		t.Errorf("span dump: %v", err)
	}
}
