// Command mpbench is metaprobe's end-to-end benchmark. It boots the
// daemon the way cmd/metaprobed does, drives POST /v1/select over
// loopback HTTP with one of four workloads, checks every answer, and
// prints one JSON result line:
//
//	bash mpbench/run.sh --workload health-http --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics BENCHMARK.json
// declares; with --trace 1 a separate traced run reports the per-layer
// metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"metaprobe/internal/estimate"
	"metaprobe/internal/eval"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// boots is how many times the daemon boots for setup_s; the last
	// boot serves the load.
	boots int
	// spec is BENCHMARK.json, the declaration of every metric a run
	// must print.
	spec string
	// out holds snapshots and the span dump.
	out string
	// tamper, when set, alters the answers before they are checked.
	tamper func([]answer)
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("mpbench", flag.ExitOnError)
	fs.StringVar(&cfg.workload, "workload", "health-http", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.Parse(os.Args[1:])
	cfg.boots = 5
	cfg.spec = "BENCHMARK.json"
	cfg.out = filepath.Join(".bench_build", "mpbench")
	cfg.trace = trace == 1

	res, err := run(cfg)
	if err != nil {
		if res != nil {
			fmt.Fprintf(os.Stderr, "mpbench: %d of %d operations failed\n", res.Failed, res.Attempted)
		}
		fmt.Fprintln(os.Stderr, "mpbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

func run(cfg config) (*result, error) {
	nproc := runtime.NumCPU()
	w, err := findWorkload(cfg.workload, nproc)
	if err != nil {
		return nil, err
	}
	declared, err := declaredMetrics(cfg.spec, cfg.trace)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	measure := time.Duration(cfg.seconds * float64(time.Second))

	probes := &probeCounters{}
	var spans *spanRecorder
	var wrap func(http.Handler) http.Handler
	if cfg.trace {
		spans = newSpanRecorder()
		probes.spans = spans
		wrap = timingHandler(spans)
	}
	d, st, err := bootMedian(cfg.boots, w, cfg.out, probes, cfg.trace, wrap)
	if err != nil {
		return nil, err
	}
	defer d.close()
	snapshots := []string{d.snapshot}
	if w.swapEvery > 0 {
		b := filepath.Join(cfg.out, "model-b.mpb")
		if err := d.trainSnapshot(b, 3); err != nil {
			return nil, err
		}
		snapshots = append(snapshots, b)
	}
	pool, err := testPool(d.gen, cfg.seed, w)
	if err != nil {
		return nil, err
	}

	c := newClient(d.addr, nproc, w.closedClients == 0, spans)
	g := &loadgen{w: w, d: d, c: c, pool: pool, seed: cfg.seed, snapshots: snapshots,
		warmup: warmup, measure: measure, probes: probes}
	probes.reset()
	lr, err := g.run()
	c.close()
	if err != nil {
		return nil, err
	}
	info := d.ms.ModelInfo()
	fmt.Fprintf(os.Stderr, "mpbench: serving model version %d (%s)\n", info.Version, info.Source)
	if cfg.tamper != nil {
		cfg.tamper(lr.answers)
	}

	// Golden standard and the reference loop, for every query served.
	served := make(map[int]bool)
	for _, a := range lr.answers {
		served[a.query] = true
	}
	idx := sortedKeys(served)
	gold, err := eval.BuildGolden(d.raw, estimate.NewDocFrequency(), subset(pool, idx))
	if err != nil {
		return nil, err
	}
	golden := make(map[int]*eval.Golden, len(idx))
	for i, qi := range idx {
		golden[qi] = &gold[i]
	}
	refs, err := references(snapshots, d.raw, pool, idx, lr.answers, !w.onlineRefinement, nproc)
	if err != nil {
		return nil, err
	}
	v := checkAnswers(newChecker(d.raw), pool, golden, refs, !w.onlineRefinement, lr.answers)
	for _, f := range v.failures {
		fmt.Fprintln(os.Stderr, "mpbench: check failed:", f)
	}
	correct := v.scored > 0
	if v.corA < v.rdOnlyCorA || v.corA < v.baselineCorA {
		fmt.Fprintf(os.Stderr, "mpbench: APro cor_a %.4f below RD-only %.4f or baseline %.4f\n",
			v.corA, v.rdOnlyCorA, v.baselineCorA)
		correct = false
	}
	fmt.Fprintf(os.Stderr, "mpbench: %s seed %d: %d answers, %d measured, coalesced %d of %d, cor_a %.4f (rd-only %.4f, baseline %.4f)\n",
		w.name, cfg.seed, len(lr.answers), v.scored, v.coalesced, v.coalesced+v.runs, v.corA, v.rdOnlyCorA, v.baselineCorA)

	var m map[string]metric
	if cfg.trace {
		m, err = layerMetrics(w, d, lr, v, st, g.reloads, probes, spans, pool, idx, cfg.out)
	} else {
		m, err = endToEndMetrics(lr, v, st)
	}
	if err != nil {
		return nil, err
	}
	res := &result{Correct: correct, Attempted: len(lr.answers), Failed: v.failed, Metrics: m}
	// An incomplete run still returns what it checked, for the tests;
	// main prints no result for it.
	return res, checkComplete(m, declared)
}

// testPool draws the workload's test queries from the seed, leaving
// out any query of the serving model's training pool.
func testPool(gen *queries.Generator, seed int64, w workload) ([]queries.Query, error) {
	train, err := gen.Pool(stats.NewRNG(deploySeed).Fork(1), trainN, trainN)
	if err != nil {
		return nil, err
	}
	inTrain := make(map[string]bool, len(train))
	for _, q := range train {
		inTrain[q.String()] = true
	}
	drawn, err := gen.Pool(stats.NewRNG(seed).Fork(20), w.pool, w.pool)
	if err != nil {
		return nil, err
	}
	var out []queries.Query
	for _, q := range drawn {
		if !inTrain[q.String()] {
			out = append(out, q)
		}
	}
	return out, nil
}

// benchmarkSpec is the part of BENCHMARK.json the run checks itself
// against.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// declaredMetrics reads the metric names and units a run must print.
func declaredMetrics(path string, trace bool) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("metric declaration: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("metric declaration %s: %w", path, err)
	}
	out := make(map[string]string)
	list := spec.EndToEnd
	if trace {
		list = spec.PerLayer
	}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("metric declaration %s declares no metrics", path)
	}
	return out, nil
}

// checkComplete fails a run that lacks a declared metric, reports one
// in another unit, reports a non-finite value, or reports an
// undeclared one.
func checkComplete(got map[string]metric, declared map[string]string) error {
	var missing []string
	for name, unit := range declared {
		m, ok := got[name]
		switch {
		case !ok:
			missing = append(missing, name)
		case m.Unit != unit:
			return fmt.Errorf("metric %s in %q, declared %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("declared metrics missing from this run: %s", strings.Join(missing, ", "))
	}
	for name := range got {
		if _, ok := declared[name]; !ok {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// subset returns the pool queries at idx.
func subset(pool []queries.Query, idx []int) []queries.Query {
	out := make([]queries.Query, len(idx))
	for i, qi := range idx {
		out[i] = pool[qi]
	}
	return out
}
