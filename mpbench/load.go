package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"metaprobe/internal/queries"
	"metaprobe/internal/server"
	"metaprobe/internal/stats"
)

// answer is one request the load generator sent and what came back.
type answer struct {
	query int // index into the run's query pool
	resp  *server.SelectResponse
	err   error
	// latency is client side: from the due time in the open loop, from
	// the send in the closed loop.
	latency time.Duration
	// lag is how late the generator sent the request: past its due
	// time (open loop), or after the client's previous answer arrived
	// (closed loop).
	lag time.Duration
	// window is the measured window the request was sent (open loop:
	// due) in, -1 during warm-up.
	window int
	// swappedTo is the snapshot index a hot swap installed just before
	// this request, which then ran alone; -1 otherwise.
	swappedTo int
	// span is the client-side request span (traced runs).
	span int64
}

// client speaks /v1/select over loopback HTTP.
type client struct {
	hc    *http.Client
	url   string
	spans *spanRecorder
}

// newClient opens at most conns connections. With h2c the in-flight
// requests beyond conns are multiplexed as HTTP/2 streams over them.
func newClient(addr string, conns int, h2c bool, spans *spanRecorder) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	if h2c {
		tr.Protocols = new(http.Protocols)
		tr.Protocols.SetUnencryptedHTTP2(true)
	}
	return &client{hc: &http.Client{Transport: tr}, url: "http://" + addr + "/v1/select", spans: spans}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// spanHeader carries the client's request span ID to the timing
// handler, which records the server-side span as its child.
const spanHeader = "X-Mpbench-Span"

// do sends one selection request and decodes the answer.
func (c *client) do(ctx context.Context, query string) (*server.SelectResponse, int64, error) {
	body, err := json.Marshal(server.SelectRequest{Query: query, K: reqK, Threshold: reqThreshold})
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	var id int64
	if c.spans != nil {
		start := time.Now()
		id = c.spans.open("client.request", 0, start)
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		defer func() { c.spans.close(id, time.Now()) }()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, id, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, id, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var out server.SelectResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, id, fmt.Errorf("decode answer: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	return &out, id, nil
}

// timingHandler wraps the daemon's handler and records one
// server.handler span per request, parented to the client's span.
func timingHandler(spans *spanRecorder) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			next.ServeHTTP(w, r)
			parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
			spans.add("server.handler", parent, start, time.Now())
		})
	}
}

// phaseStats are process counters read at the measurement window
// boundaries.
type phaseStats struct {
	at        time.Time
	cpu       time.Duration
	allocB    uint64
	gcCycles  uint64
	gcPauseNs uint64
	// searches and busyNs are the backend counters.
	searches, busyNs int64
}

// windows is the number of equal windows the measured phase is split
// into. Throughput, CPU and allocation per request report the median
// window, so a burst of noise from outside the process moves at most
// one of them; latency percentiles pool the windows' samples, so the
// tail keeps enough samples beyond it.
const windows = 5

// loadResult is one load phase: every answer (warm-up included) and
// the process counters at each window boundary.
type loadResult struct {
	answers []answer
	// marks[i] is read when window i starts; marks[windows] after the
	// last measured answer arrived.
	marks [windows + 1]phaseStats
}

// window returns the measured window a request sent (or due) at t
// belongs to, -1 during warm-up.
func (g *loadgen) window(warmEnd, t time.Time) int {
	if t.Before(warmEnd) {
		return -1
	}
	w := int(t.Sub(warmEnd) * windows / g.measure)
	return min(w, windows-1)
}

// markWindows reads the counters at the start of every window; the
// returned wait blocks until the last of those reads is done.
func (g *loadgen) markWindows(warmEnd time.Time, res *loadResult) (wait func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < windows; i++ {
			time.Sleep(time.Until(warmEnd.Add(g.measure * time.Duration(i) / windows)))
			res.marks[i] = readPhaseStats(g.probes)
		}
	}()
	return func() { <-done }
}

// loadgen drives one workload against a booted daemon.
type loadgen struct {
	w         workload
	d         *daemon
	c         *client
	pool      []queries.Query
	seed      int64
	snapshots []string
	warmup    time.Duration
	measure   time.Duration
	probes    *probeCounters
	// sleep waits until the next due time; nil means time.Sleep.
	sleep func(time.Duration)
	// reloads times each hot swap's ReloadModel call.
	reloads []time.Duration
}

func (g *loadgen) run() (*loadResult, error) {
	if g.w.closedClients > 0 {
		return g.closed()
	}
	return g.open()
}

// closed runs w.closedClients clients, each sending its next request
// when its previous answer arrives. They walk one seeded permutation
// of the pool, so two clients never send the same query at once while
// the pool is larger than the client count.
func (g *loadgen) closed() (*loadResult, error) {
	order := stats.NewRNG(g.seed).Fork(10).Perm(len(g.pool))
	res := &loadResult{}
	start := time.Now()
	warmEnd := start.Add(g.warmup)
	end := warmEnd.Add(g.measure)
	var (
		next     atomic.Int64
		answered atomic.Int64
		swaps    atomic.Int64
		gate     sync.RWMutex // held shared per request, exclusively per swap
		mu       sync.Mutex
		wg       sync.WaitGroup
	)
	marked := g.markWindows(warmEnd, res)
	send := func(swappedTo int, prevDone time.Time) answer {
		qi := order[int(next.Add(1)-1)%len(order)]
		sent := time.Now()
		resp, id, err := g.c.do(context.Background(), g.pool[qi].String())
		return answer{query: qi, resp: resp, err: err, latency: time.Since(sent),
			lag: sent.Sub(prevDone), window: g.window(warmEnd, sent), swappedTo: swappedTo, span: id}
	}
	for c := 0; c < g.w.closedClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []answer
			prevDone := time.Now()
			for time.Now().Before(end) {
				gate.RLock()
				a := send(-1, prevDone)
				gate.RUnlock()
				prevDone = time.Now()
				local = append(local, a)
				if g.w.swapEvery > 0 && answered.Add(1)%int64(g.w.swapEvery) == 0 {
					// Hot swap with the daemon quiet, then one request
					// alone: its answer must match the reference loop
					// on the swapped-in snapshot exactly.
					gate.Lock()
					k := int(swaps.Add(1)) % len(g.snapshots)
					t0 := time.Now()
					err := g.d.ms.ReloadModel(g.snapshots[k])
					mu.Lock()
					g.reloads = append(g.reloads, time.Since(t0))
					mu.Unlock()
					if err != nil {
						local = append(local, answer{err: fmt.Errorf("reload: %w", err), swappedTo: k,
							window: g.window(warmEnd, t0)})
					} else {
						local = append(local, send(k, time.Now()))
					}
					gate.Unlock()
					prevDone = time.Now()
				}
			}
			mu.Lock()
			res.answers = append(res.answers, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	marked()
	res.marks[windows] = readPhaseStats(g.probes)
	return res, nil
}

// open sends requests at w.rate per second on a fixed schedule whatever
// the daemon's state. Queries are Zipf-popular over the pool, so
// identical requests overlap and the coalescer has work. Latency runs
// from each request's due time, so a stall also charges the requests
// queued behind it.
func (g *loadgen) open() (*loadResult, error) {
	rng := stats.NewRNG(g.seed).Fork(11)
	rank := rng.Perm(len(g.pool))
	zipf, err := stats.NewWeightedSampler(stats.ZipfWeights(len(g.pool), g.w.zipf))
	if err != nil {
		return nil, err
	}
	interval := time.Duration(float64(time.Second) / g.w.rate)
	warmN := int(g.warmup / interval)
	total := warmN + int(g.measure/interval)
	res := &loadResult{answers: make([]answer, total)}
	sleep := g.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var wg sync.WaitGroup
	start := time.Now()
	warmEnd := start.Add(time.Duration(warmN) * interval)
	marked := g.markWindows(warmEnd, res)
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			sleep(d)
		}
		qi := rank[zipf.Sample(rng)]
		lag := time.Since(due)
		wg.Add(1)
		go func(i, qi int, due time.Time, lag time.Duration) {
			defer wg.Done()
			resp, id, err := g.c.do(context.Background(), g.pool[qi].String())
			res.answers[i] = answer{query: qi, resp: resp, err: err, latency: time.Since(due),
				lag: lag, window: g.window(warmEnd, due), swappedTo: -1, span: id}
		}(i, qi, due, lag)
	}
	wg.Wait()
	marked()
	res.marks[windows] = readPhaseStats(g.probes)
	return res, nil
}
