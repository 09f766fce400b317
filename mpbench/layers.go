package main

import (
	"context"
	"fmt"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/hidden"
	"metaprobe/internal/probeexec"
	"metaprobe/internal/queries"
)

// layerPassBudget bounds the single-selection layer pass of a traced
// run; it stops after layerPassQueries queries or this long, whichever
// comes first.
const (
	layerPassBudget  = 3 * time.Second
	layerPassQueries = 200
	// publishRepeats and reloadRepeats time core.NewModelVersion and
	// Metasearcher.ReloadModel this many times each.
	publishRepeats = 3
	reloadRepeats  = 3
)

// stageTotals accumulates a selection's stage reports.
type stageTotals struct {
	seconds map[string]float64
	calls   map[string]int
}

func newStageTotals() *stageTotals {
	return &stageTotals{seconds: make(map[string]float64), calls: make(map[string]int)}
}

// observer returns a core.StageObserver charging t and recording one
// span per stage under parent. The probe stage is left to the probe
// closure's own span, so backend searches nest below it.
func (t *stageTotals) observer(spans *spanRecorder, prefix string, parent *int64) core.StageObserver {
	return func(stage string, seconds float64, _ uint64) {
		t.seconds[stage] += seconds
		t.calls[stage]++
		if stage == core.StageProbe {
			return
		}
		end := time.Now()
		spans.add(prefix+stage, *parent, end.Add(-time.Duration(seconds*1e9)), end)
	}
}

// layerPass runs selections one at a time, outside the load, timing
// direct calls into each layer's public functions: it is the only
// place allocation counts are taken, since the program's counter is
// process-wide and charges a stage with concurrent work.
type layerPass struct {
	w      workload
	d      *daemon
	probes *probeCounters
	spans  *spanRecorder
}

// layerResult is the layer pass's per-layer figures.
type layerResult struct {
	publishMs, reloadMs          float64
	rhatUs, newSelUs, observeUs  float64
	ecorUs, rankMs, rankCalls    float64
	rankShare, unattributedShare float64
	allocs, probeWaitMs          float64
	selectMsP50                  float64
	selections                   int
}

func (p *layerPass) run(qs []queries.Query) (*layerResult, error) {
	var lr layerResult
	model, err := core.LoadModel(p.d.snapshot)
	if err != nil {
		return nil, err
	}
	var ver *core.ModelVersion
	var publish []float64
	for i := 0; i < publishRepeats; i++ {
		t0 := time.Now()
		ver = core.NewModelVersion(model, "mpbench", t0)
		publish = append(publish, ms(time.Since(t0)))
		p.spans.add("core.publish", 0, t0, time.Now())
	}
	lr.publishMs = mean(publish)
	// Under online refinement every probe is folded back into the
	// version that serves the next selection; otherwise ObserveProbe
	// is timed on a scratch version, leaving the serving rows intact.
	observeVer := ver
	if !p.w.onlineRefinement {
		scratch, err := core.LoadModel(p.d.snapshot)
		if err != nil {
			return nil, err
		}
		observeVer = core.NewModelVersion(scratch, "mpbench-scratch", time.Now())
	}
	exec := probeexec.NewExecutor(probeexec.Config{Speculation: p.w.speculation})
	dbs := p.d.backends
	name := func(i int) string { return dbs[i].Name() }

	var rhat, newSel, observe, selectMs []float64
	core1 := newStageTotals()
	execStages := newStageTotals()
	var wall, newSelSum float64
	var allocs uint64
	// Queries spread evenly over the served ones, which are in pool
	// order (2-term queries first).
	stride := max(1, len(qs)/layerPassQueries)
	deadline := time.Now().Add(layerPassBudget)
	for qi := 0; qi < len(qs); qi += stride {
		if lr.selections >= layerPassQueries || (lr.selections > 0 && time.Now().After(deadline)) {
			break
		}
		text, nt := qs[qi].String(), qs[qi].NumTerms()

		t0 := time.Now()
		p.d.ms.Estimates(text)
		rhat = append(rhat, float64(time.Since(t0))/1e3)
		p.spans.add("metaprobe.estimates", 0, t0, time.Now())

		// The paper's sequential loop with the stage observer.
		root := p.spans.open("layer.selection", 0, time.Now())
		probe := func(i int) (float64, error) {
			ps := p.spans.open("core.probe", root, time.Now())
			p.probes.parent.Store(ps)
			v, err := model.Rel.Probe(dbs[i], text)
			p.probes.parent.Store(0)
			p.spans.close(ps, time.Now())
			return v, err
		}
		a0 := core.ReadHeapAllocs()
		t0 = time.Now()
		sel := ver.NewSelection(text, nt, core.Absolute, reqK)
		t1 := time.Now()
		p.spans.add("core.new_selection", root, t0, t1)
		sel.WithStageObserver(core1.observer(p.spans, "core.", &root))
		out, err := core.APro(sel, probe, &core.Greedy{}, reqThreshold, -1)
		t2 := time.Now()
		allocs += core.ReadHeapAllocs() - a0
		p.spans.close(root, t2)
		sel.Release()
		if err != nil {
			return nil, fmt.Errorf("layer pass %q: %w", text, err)
		}
		newSel = append(newSel, float64(t1.Sub(t0))/1e3)
		newSelSum += t1.Sub(t0).Seconds()
		wall += t2.Sub(t0).Seconds()
		for _, step := range out.Steps {
			t0 := time.Now()
			if err := observeVer.ObserveProbe(step.DB, text, nt, step.Value); err != nil {
				return nil, err
			}
			observe = append(observe, float64(time.Since(t0))/1e3)
			p.spans.add("core.observe_probe", 0, t0, time.Now())
		}

		// The same selection through the concurrent executor, for the
		// time the loop spends blocked on probes.
		eroot := p.spans.open("layer.executor", 0, time.Now())
		p.probes.parent.Store(eroot)
		esel := ver.NewSelection(text, nt, core.Absolute, reqK).WithStageObserver(execStages.observer(p.spans, "probeexec.", &eroot))
		eprobe := func(ctx context.Context, i int) (float64, error) {
			return model.Rel.Probe(hidden.WithContext(ctx, dbs[i]), text)
		}
		_, err = exec.APro(context.Background(), esel, name, eprobe, &core.Greedy{}, reqThreshold, -1)
		p.probes.parent.Store(0)
		p.spans.close(eroot, time.Now())
		esel.Release()
		if err != nil {
			return nil, fmt.Errorf("layer pass executor %q: %w", text, err)
		}

		// The facade call the server makes for a full-tier request.
		t0 = time.Now()
		if _, err := p.d.ms.SelectWithCertaintyContext(context.Background(), text, reqK, core.Absolute, reqThreshold, -1); err != nil {
			return nil, err
		}
		selectMs = append(selectMs, ms(time.Since(t0)))
		p.spans.add("metaprobe.select", 0, t0, time.Now())
		lr.selections++
	}
	if lr.selections == 0 {
		return nil, fmt.Errorf("layer pass ran no selections")
	}

	var reload []float64
	for i := 0; i < reloadRepeats; i++ {
		t0 := time.Now()
		if err := p.d.ms.ReloadModel(p.d.snapshot); err != nil {
			return nil, err
		}
		reload = append(reload, ms(time.Since(t0)))
		p.spans.add("metaprobe.reload", 0, t0, time.Now())
	}

	n := float64(lr.selections)
	stages := core1.seconds[core.StageECorDP] + core1.seconds[core.StageRank] + core1.seconds[core.StageProbe]
	lr.reloadMs = mean(reload)
	lr.rhatUs = mean(rhat)
	lr.newSelUs = mean(newSel)
	lr.observeUs = mean(observe)
	lr.ecorUs = core1.seconds[core.StageECorDP] / n * 1e6
	lr.rankMs = core1.seconds[core.StageRank] / n * 1e3
	lr.rankCalls = float64(core1.calls[core.StageRank]) / n
	lr.rankShare = core1.seconds[core.StageRank] / wall
	lr.unattributedShare = 1 - (newSelSum+stages)/wall
	lr.allocs = float64(allocs) / n
	lr.probeWaitMs = execStages.seconds[core.StageProbe] / n * 1e3
	lr.selectMsP50 = median(selectMs)
	return &lr, nil
}
