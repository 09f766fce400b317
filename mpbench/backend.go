package main

import (
	"context"
	"sync/atomic"
	"time"

	"metaprobe"
	"metaprobe/internal/hidden"
)

// maxTrackedInflight bounds the in-flight histogram; deeper levels are
// counted in the last bucket.
const maxTrackedInflight = 256

// probeCounters counts searches at the backends, across every
// database. Counting is always on (backend_searches_per_request);
// timing, the in-flight histogram and spans only in traced runs.
type probeCounters struct {
	searches atomic.Int64
	busyNs   atomic.Int64
	inflight atomic.Int64
	// levels[i] counts searches that started with i searches already
	// in flight (probeexec.inflight_p99).
	levels [maxTrackedInflight + 1]atomic.Int64
	// spans, when non-nil, records one span per search; parent is the
	// span the layer pass has open (0 under load, where the selection
	// runs on the server's own context).
	spans  *spanRecorder
	parent atomic.Int64
}

func (c *probeCounters) reset() {
	c.searches.Store(0)
	c.busyNs.Store(0)
	for i := range c.levels {
		c.levels[i].Store(0)
	}
}

// inflightQuantile returns the q-quantile of the in-flight level seen
// by starting searches.
func (c *probeCounters) inflightQuantile(q float64) float64 {
	var total int64
	counts := make([]int64, len(c.levels))
	for i := range c.levels {
		counts[i] = c.levels[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	var seen int64
	for i, n := range counts {
		seen += n
		if seen > rank {
			return float64(i)
		}
	}
	return float64(len(counts) - 1)
}

// servingBackends is the serving view of the testbed: every database,
// optionally behind hidden.Latency, behind a counting wrapper.
func servingBackends(raw []hidden.Database, delay time.Duration, c *probeCounters, traced bool) []metaprobe.Database {
	out := make([]metaprobe.Database, len(raw))
	for i, db := range raw {
		if delay > 0 {
			db = hidden.NewLatency(db, delay)
		}
		out[i] = &countingDB{db: db, c: c, traced: traced}
	}
	return out
}

// countingDB is a hidden.Database (and ContextDatabase, Sizer) that
// counts every search and, when traced, times it.
type countingDB struct {
	db     hidden.Database
	c      *probeCounters
	traced bool
}

func (b *countingDB) Name() string { return b.db.Name() }

func (b *countingDB) Size() int {
	if s, ok := b.db.(hidden.Sizer); ok {
		return s.Size()
	}
	return 0
}

func (b *countingDB) Search(query string, topK int) (hidden.Result, error) {
	return b.SearchContext(context.Background(), query, topK)
}

func (b *countingDB) SearchContext(ctx context.Context, query string, topK int) (hidden.Result, error) {
	b.c.searches.Add(1)
	if !b.traced {
		return hidden.SearchContext(ctx, b.db, query, topK)
	}
	level := b.c.inflight.Add(1) - 1
	if level > maxTrackedInflight {
		level = maxTrackedInflight
	}
	b.c.levels[level].Add(1)
	start := time.Now()
	res, err := hidden.SearchContext(ctx, b.db, query, topK)
	end := time.Now()
	b.c.inflight.Add(-1)
	b.c.busyNs.Add(int64(end.Sub(start)))
	b.c.spans.add("hidden.search", b.c.parent.Load(), start, end)
	return res, err
}
