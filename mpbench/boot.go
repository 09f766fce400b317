package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"metaprobe"
	"metaprobe/internal/corpus"
	"metaprobe/internal/hidden"
	"metaprobe/internal/queries"
	"metaprobe/internal/server"
	"metaprobe/internal/stats"
)

// setupTimes is one boot's phase breakdown, in seconds.
type setupTimes struct {
	testbed, summaries, train, snapshot, listen float64
	// total is boot to ready: the sum of the phases.
	total float64
	// heapMB is the live heap the boot added after the testbed was
	// built: summaries, the model and its published version.
	heapMB float64
}

// daemon is one booted metaprobed: the tenant, the server and its
// loopback listener, plus the raw testbed the golden standard and the
// reference loop read.
type daemon struct {
	world    *corpus.World
	raw      *hidden.Testbed
	backends []metaprobe.Database
	ms       *metaprobe.Metasearcher
	srv      *server.Server
	hs       *http.Server
	served   chan error
	addr     string
	snapshot string
	gen      *queries.Generator
}

// tenantConfig is cmd/metaprobed's per-tenant configuration (metrics,
// spans, drift detection) plus the workload's probe-execution
// settings. The background refresher cmd/metaprobed also enables is
// left off: on stationary traffic its drift alerts commit retrained
// model versions within seconds, so answers would come from versions
// the run cannot name and could not check against a reference.
func tenantConfig(w workload, reg *metaprobe.Metrics, spans *metaprobe.SpanTracer) *metaprobe.Config {
	return &metaprobe.Config{
		Metrics:          reg,
		Spans:            spans,
		Drift:            &metaprobe.DriftConfig{},
		Speculation:      w.speculation,
		OnlineRefinement: w.onlineRefinement,
	}
}

// liveHeapMB collects garbage and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// boot starts the daemon the way cmd/metaprobed does: testbed,
// summaries, one training pass, a snapshot, then a tenant loaded from
// that snapshot behind server.Server on a loopback listener. The
// collections between phases (for the heap figure) are not timed.
func boot(w workload, dir string, probes *probeCounters, traced bool, handlerWrap func(http.Handler) http.Handler) (*daemon, setupTimes, error) {
	var st setupTimes
	d := &daemon{world: corpus.HealthWorld()}

	t0 := time.Now()
	raw, err := hidden.BuildTestbed(d.world, corpus.HealthTestbed(testbedScale), deploySeed)
	if err != nil {
		return nil, st, fmt.Errorf("testbed: %w", err)
	}
	d.raw = raw
	st.testbed = time.Since(t0).Seconds()
	heap0 := liveHeapMB()

	t0 = time.Now()
	rawDBs := raw.Databases()
	sums, err := metaprobe.ExactSummaries(rawDBs)
	if err != nil {
		return nil, st, fmt.Errorf("summaries: %w", err)
	}
	st.summaries = time.Since(t0).Seconds()

	t0 = time.Now()
	d.gen, err = queries.NewGenerator(d.world, queries.Config{})
	if err != nil {
		return nil, st, err
	}
	trainPool, err := d.gen.Pool(stats.NewRNG(deploySeed).Fork(1), trainN, trainN)
	if err != nil {
		return nil, st, err
	}
	// Training issues its queries to the local collections; the
	// serving tenant below reaches them through the workload's
	// backends (latency, counting).
	trainer, err := metaprobe.New(rawDBs, sums, nil)
	if err != nil {
		return nil, st, err
	}
	if err := trainer.Train(queryStrings(trainPool)); err != nil {
		return nil, st, fmt.Errorf("train: %w", err)
	}
	st.train = time.Since(t0).Seconds()

	t0 = time.Now()
	d.snapshot = filepath.Join(dir, "model-a.mpb")
	if err := trainer.SaveModel(d.snapshot); err != nil {
		return nil, st, fmt.Errorf("snapshot: %w", err)
	}
	trainer.Close()
	d.backends = servingBackends(rawDBs, w.probeDelay, probes, traced)
	reg := metaprobe.NewMetrics()
	spans := metaprobe.NewSpanTracer(0)
	spans.Bind(reg)
	d.ms, err = metaprobe.NewFromModel(d.backends, d.snapshot, tenantConfig(w, reg, spans))
	if err != nil {
		return nil, st, fmt.Errorf("load snapshot: %w", err)
	}
	st.snapshot = time.Since(t0).Seconds()

	t0 = time.Now()
	d.srv = server.New(server.Config{
		Metrics:      reg,
		Spans:        spans,
		SoftInflight: 64,
		TenantBurst:  32,
		RunTimeout:   30 * time.Second,
	})
	if err := d.srv.AddTenant(server.DefaultTenant, d.ms); err != nil {
		d.ms.Close()
		return nil, st, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		return nil, st, err
	}
	d.addr = ln.Addr().String()
	var h http.Handler = d.srv.Handler()
	if handlerWrap != nil {
		h = handlerWrap(h)
	}
	protocols := new(http.Protocols)
	protocols.SetHTTP1(true)
	protocols.SetUnencryptedHTTP2(true)
	d.hs = &http.Server{Handler: h, Protocols: protocols}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	if err := waitReady(d.addr); err != nil {
		d.close()
		return nil, st, err
	}
	st.listen = time.Since(t0).Seconds()
	st.total = st.testbed + st.summaries + st.train + st.snapshot + st.listen
	st.heapMB = liveHeapMB() - heap0
	return d, st, nil
}

// waitReady polls /readyz until the daemon reports ready.
func waitReady(addr string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not ready after 10s (last error %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// close drains the daemon like cmd/metaprobed on SIGTERM and waits for
// the listener goroutine to exit.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Drain(ctx)
	d.hs.Shutdown(ctx)
	if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "mpbench: listener:", err)
	}
	d.srv.Close()
}

// bootMedian boots the daemon n times, keeps the last boot and reports
// the per-phase medians across all of them.
func bootMedian(n int, w workload, dir string, probes *probeCounters, traced bool, handlerWrap func(http.Handler) http.Handler) (*daemon, setupTimes, error) {
	var all []setupTimes
	var d *daemon
	for i := 0; i < n; i++ {
		if d != nil {
			d.close()
			d = nil
		}
		var st setupTimes
		var err error
		d, st, err = boot(w, dir, probes, traced, handlerWrap)
		if err != nil {
			return nil, setupTimes{}, err
		}
		all = append(all, st)
	}
	pick := func(f func(setupTimes) float64) float64 {
		v := make([]float64, len(all))
		for i, st := range all {
			v[i] = f(st)
		}
		return median(v)
	}
	med := setupTimes{
		testbed:   pick(func(s setupTimes) float64 { return s.testbed }),
		summaries: pick(func(s setupTimes) float64 { return s.summaries }),
		train:     pick(func(s setupTimes) float64 { return s.train }),
		snapshot:  pick(func(s setupTimes) float64 { return s.snapshot }),
		listen:    pick(func(s setupTimes) float64 { return s.listen }),
		heapMB:    pick(func(s setupTimes) float64 { return s.heapMB }),
		total:     pick(func(s setupTimes) float64 { return s.total }),
	}
	return d, med, nil
}

// trainSnapshot trains a second model on a query pool disjoint from the
// serving model's and saves it, for the hot-swap workload.
func (d *daemon) trainSnapshot(path string, fork int64) error {
	pool, err := d.gen.Pool(stats.NewRNG(deploySeed).Fork(fork), trainN, trainN)
	if err != nil {
		return err
	}
	// Drop queries shared with the serving model's pool so the two
	// snapshots are trained on disjoint pools.
	first, err := d.gen.Pool(stats.NewRNG(deploySeed).Fork(1), trainN, trainN)
	if err != nil {
		return err
	}
	seen := make(map[string]bool, len(first))
	for _, q := range first {
		seen[q.String()] = true
	}
	var train []string
	for _, q := range pool {
		if !seen[q.String()] {
			train = append(train, q.String())
		}
	}
	sums, err := metaprobe.ExactSummaries(d.raw.Databases())
	if err != nil {
		return err
	}
	ms, err := metaprobe.New(d.raw.Databases(), sums, nil)
	if err != nil {
		return err
	}
	defer ms.Close()
	if err := ms.Train(train); err != nil {
		return err
	}
	return ms.SaveModel(path)
}

func queryStrings(qs []queries.Query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.String()
	}
	return out
}
