package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"metaprobe/internal/queries"
)

// windowFigures are one measured window's timing figures.
type windowFigures struct {
	samples                   int
	throughput, cpuMs, allocK float64
	latency, lag              []float64 // ms, sorted
}

// perWindow splits the measured answers into their windows.
func perWindow(lr *loadResult) []windowFigures {
	out := make([]windowFigures, windows)
	for _, a := range lr.answers {
		if a.window < 0 || a.err != nil {
			continue
		}
		w := &out[a.window]
		w.samples++
		w.latency = append(w.latency, ms(a.latency))
		w.lag = append(w.lag, ms(a.lag))
	}
	for i := range out {
		w := &out[i]
		from, to := lr.marks[i], lr.marks[i+1]
		n := float64(w.samples)
		w.throughput = n / to.at.Sub(from.at).Seconds()
		w.cpuMs = ms(to.cpu-from.cpu) / n
		w.allocK = float64(to.allocB-from.allocB) / 1024 / n
		sort.Float64s(w.latency)
		sort.Float64s(w.lag)
	}
	return out
}

// medianOver returns the median across windows of f, or an error when
// some window answered nothing.
func medianOver(ws []windowFigures, f func(windowFigures) float64) (float64, error) {
	v := make([]float64, 0, len(ws))
	for i, w := range ws {
		if w.samples == 0 {
			return 0, fmt.Errorf("window %d answered nothing", i)
		}
		v = append(v, f(w))
	}
	return median(v), nil
}

// pooled returns the windows' samples of one kind together, sorted.
func pooled(ws []windowFigures, f func(windowFigures) []float64) []float64 {
	var out []float64
	for _, w := range ws {
		out = append(out, f(w)...)
	}
	sort.Float64s(out)
	return out
}

// measuredCount returns the number of measured answers and their total
// probes.
func measuredCount(lr *loadResult) (answered int, probes float64) {
	for _, a := range lr.answers {
		if a.window >= 0 && a.err == nil {
			answered++
			probes += float64(a.resp.Probes)
		}
	}
	return answered, probes
}

// reportSamples states the run's sample counts, per window.
func reportSamples(ws []windowFigures) {
	counts := make([]string, len(ws))
	total := 0
	for i, w := range ws {
		p50, _ := tailPercentile(w.latency, 0.5)
		p90, _ := tailPercentile(w.latency, 0.9)
		counts[i] = fmt.Sprintf("%d (p50 %.2fms p90 %.2fms %.0f/s)", w.samples, p50, p90, w.throughput)
		total += w.samples
	}
	fmt.Fprintf(os.Stderr, "mpbench: %d latency samples; per window: %s\n", total, strings.Join(counts, ", "))
}

func endToEndMetrics(lr *loadResult, v verdict, st setupTimes) (map[string]metric, error) {
	answered, probes := measuredCount(lr)
	if answered == 0 {
		return nil, fmt.Errorf("no measured answers")
	}
	n := float64(answered)
	ws := perWindow(lr)
	reportSamples(ws)
	m := map[string]metric{
		"setup_s":                      {st.total, "s"},
		"model_heap_mb":                {st.heapMB, "MB"},
		"probes_per_selection":         {probes / n, "probes"},
		"backend_searches_per_request": {float64(lr.marks[windows].searches-lr.marks[0].searches) / n, "searches"},
		"cor_a":                        {v.corA, "fraction"},
		"cor_p":                        {v.corP, "fraction"},
	}
	timed := []struct {
		name, unit string
		f          func(windowFigures) float64
	}{
		{"throughput_sps", "selections/s", func(w windowFigures) float64 { return w.throughput }},
		{"cpu_ms_per_request", "ms", func(w windowFigures) float64 { return w.cpuMs }},
		{"alloc_kb_per_request", "KiB", func(w windowFigures) float64 { return w.allocK }},
	}
	for _, t := range timed {
		x, err := medianOver(ws, t.f)
		if err != nil {
			// Left out; checkComplete fails the run naming it.
			fmt.Fprintf(os.Stderr, "mpbench: %s not reported: %v\n", t.name, err)
			continue
		}
		m[t.name] = metric{x, t.unit}
	}
	lat := pooled(ws, func(w windowFigures) []float64 { return w.latency })
	for _, p := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.50}, {"latency_p90_ms", 0.90}, {"latency_p99_ms", 0.99}} {
		if x, ok := tailPercentile(lat, p.q); ok {
			m[p.name] = metric{x, "ms"}
		} else {
			fmt.Fprintf(os.Stderr, "mpbench: %s not reported: %d samples\n", p.name, len(lat))
		}
	}
	return m, nil
}

func layerMetrics(w workload, d *daemon, lr *loadResult, v verdict, st setupTimes, reloads []time.Duration,
	probes *probeCounters, spans *spanRecorder, pool []queries.Query, served []int, out string) (map[string]metric, error) {
	answered, _ := measuredCount(lr)
	if answered == 0 {
		return nil, fmt.Errorf("no measured answers")
	}
	n := float64(answered)
	ws := perWindow(lr)
	reportSamples(ws)
	from, to := lr.marks[0], lr.marks[windows]

	// Handler and transport time per measured request, from the
	// client span and its server.handler child.
	handlerDur := make(map[int64]float64)
	for _, s := range spans.spans {
		if s.Name == "server.handler" && s.Parent != 0 {
			handlerDur[s.Parent] = float64(s.End-s.Start) / 1e6
		}
	}
	var handler, transport []float64
	var leaderProbes float64
	for _, a := range lr.answers {
		if a.window < 0 || a.err != nil {
			continue
		}
		h, ok := handlerDur[a.span]
		if !ok {
			return nil, fmt.Errorf("request span %d has no handler span", a.span)
		}
		req := spans.spans[a.span-1]
		rt := float64(req.End-req.Start) / 1e6
		if h > rt {
			return nil, fmt.Errorf("handler %.3fms outlasts its round trip %.3fms", h, rt)
		}
		handler = append(handler, h)
		transport = append(transport, rt-h)
		if !a.resp.Coalesced {
			leaderProbes += float64(a.resp.Probes)
		}
	}
	searches := float64(to.searches - from.searches)
	busy := float64(to.busyNs - from.busyNs)
	qs := make([]queries.Query, len(served))
	for i, qi := range served {
		qs[i] = pool[qi]
	}
	lp := &layerPass{w: w, d: d, probes: probes, spans: spans}
	layer, err := lp.run(qs)
	if err != nil {
		return nil, err
	}
	if math.Abs(layer.unattributedShare) > unattributedTolerance {
		return nil, fmt.Errorf("layer times sum to %.1f%% of selection wall time, outside ±%.0f%%",
			100*(1-layer.unattributedShare), 100*unattributedTolerance)
	}
	// Hot swaps under load, when the workload makes them, are the
	// reloads that matter; otherwise the layer pass's own.
	reloadMs := layer.reloadMs
	if len(reloads) > 0 {
		v := make([]float64, len(reloads))
		for i, r := range reloads {
			v[i] = ms(r)
		}
		reloadMs = mean(v)
	}

	self := spans.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, " %s=%.4fs", name, self[name])
	}
	fmt.Fprintf(os.Stderr, "mpbench: self time per layer:%s\n", b.String())
	dump := filepath.Join(out, "spans-"+w.name+".jsonl")
	if err := spans.write(dump); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "mpbench: %d spans written to %s; layer pass ran %d selections\n",
		len(spans.spans), dump, layer.selections)

	m := map[string]metric{
		"server.handler_ms_p50":                 {median(handler), "ms"},
		"server.transport_ms_p50":               {median(transport), "ms"},
		"server.runs_per_request":               {float64(v.runs) / float64(v.runs+v.coalesced), "ratio"},
		"server.inflight_peak":                  {float64(d.srv.Stats().PeakInflight), "count"},
		"metaprobe.select_ms_p50":               {layer.selectMsP50, "ms"},
		"metaprobe.reload_ms_mean":              {reloadMs, "ms"},
		"estimate.rhat_us_mean":                 {layer.rhatUs, "us"},
		"core.new_selection_us_mean":            {layer.newSelUs, "us"},
		"core.ecor_us_per_selection":            {layer.ecorUs, "us"},
		"core.rank_ms_per_selection":            {layer.rankMs, "ms"},
		"core.rank_calls_per_selection":         {layer.rankCalls, "count"},
		"core.rank_share":                       {layer.rankShare, "fraction"},
		"core.allocs_per_selection":             {layer.allocs, "count"},
		"core.observe_probe_us_mean":            {layer.observeUs, "us"},
		"core.publish_ms":                       {layer.publishMs, "ms"},
		"core.unattributed_share":               {layer.unattributedShare, "fraction"},
		"hidden.search_us_mean":                 {busy / searches / 1e3, "us"},
		"hidden.searches_per_selection":         {searches / n, "count"},
		"probeexec.probe_wait_ms_per_selection": {layer.probeWaitMs, "ms"},
		"probeexec.useful_probe_ratio":          {leaderProbes / searches, "fraction"},
		"probeexec.inflight_p99":                {probes.inflightQuantile(0.99), "count"},
		"setup.testbed_s":                       {st.testbed, "s"},
		"setup.summaries_s":                     {st.summaries, "s"},
		"setup.train_s":                         {st.train, "s"},
		"setup.snapshot_s":                      {st.snapshot, "s"},
		"runtime.gc_cycles_per_1k_requests":     {float64(to.gcCycles-from.gcCycles) / n * 1000, "count"},
		"runtime.gc_pause_ms_total":             {float64(to.gcPauseNs-from.gcPauseNs) / 1e6, "ms"},
	}
	// The traced run's own end-to-end figures, against which steady.py
	// states the tracing overhead, and the generator's lateness. Like
	// the untraced percentiles, they are left out (failing the run)
	// when the run is too short for them.
	if x, ok := tailPercentile(pooled(ws, func(w windowFigures) []float64 { return w.lag }), 0.99); ok {
		m["loadgen.lag_ms_p99"] = metric{x, "ms"}
	}
	if x, ok := tailPercentile(pooled(ws, func(w windowFigures) []float64 { return w.latency }), 0.50); ok {
		m["loadgen.latency_p50_ms"] = metric{x, "ms"}
	}
	if x, err := medianOver(ws, func(w windowFigures) float64 { return w.throughput }); err == nil {
		m["loadgen.throughput_sps"] = metric{x, "selections/s"}
	}
	return m, nil
}

// unattributedTolerance bounds how far the layer pass's stage times
// may fall short of (or overshoot) the selection's wall time.
const unattributedTolerance = 0.10
