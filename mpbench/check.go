package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/eval"
	"metaprobe/internal/hidden"
	"metaprobe/internal/queries"
	"metaprobe/internal/server"
)

// refAnswer is the sequential reference loop's answer for one query.
type refAnswer struct {
	dbs       []string
	certainty float64
	probes    int
	reached   bool
	// rdOnly and baseline are the sets the RD-based method without
	// probing and the term-independence estimate pick (indices).
	rdOnly, baseline []int
}

// referenceAnswers runs the paper's sequential APro — core.APro with a
// fresh core.Greedy — on a core.LoadModel of snapshot, probing the raw
// testbed directly: no daemon, no HTTP, no speculation, no coalescing.
// With apro false it computes only the non-probing sets. Queries are
// spread over workers; each selection is independent.
func referenceAnswers(snapshot string, raw *hidden.Testbed, qs []queries.Query, apro bool, workers int) ([]refAnswer, error) {
	model, err := core.LoadModel(snapshot)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	ver := core.NewModelVersion(model, "reference", time.Now())
	out := make([]refAnswer, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for qi := wi; qi < len(qs); qi += workers {
				q := qs[qi].String()
				probe := func(i int) (float64, error) { return model.Rel.Probe(raw.DB(i), q) }
				sel := ver.NewSelection(q, qs[qi].NumTerms(), core.Absolute, reqK)
				rdOnly, _ := sel.Best()
				baseline := sel.BaselineSelect()
				if !apro {
					out[qi] = refAnswer{rdOnly: rdOnly, baseline: baseline}
					sel.Release()
					continue
				}
				res, err := core.APro(sel, probe, &core.Greedy{}, reqThreshold, -1)
				if err != nil {
					errs[qi] = fmt.Errorf("reference %q: %w", q, err)
					continue
				}
				dbs := make([]string, len(res.Set))
				for j, idx := range res.Set {
					dbs[j] = raw.DB(idx).Name()
				}
				out[qi] = refAnswer{dbs: dbs, certainty: res.Certainty, probes: res.Probes(),
					reached: res.Reached, rdOnly: rdOnly, baseline: baseline}
			}
		}(wi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// references computes what the answers are checked against, per
// snapshot and pool query: the reference loop's answer wherever an
// answer must equal it (every answer when exact, else the first answer
// after each swap), and for the serving snapshot the non-probing sets
// of every served query.
func references(snapshots []string, raw *hidden.Testbed, pool []queries.Query, served []int, answers []answer, exact bool, workers int) ([]map[int]refAnswer, error) {
	need := make([]map[int]bool, len(snapshots))
	for i := range need {
		need[i] = make(map[int]bool)
	}
	for _, a := range answers {
		if exact {
			need[0][a.query] = true
		}
		if a.swappedTo >= 0 {
			need[a.swappedTo][a.query] = true
		}
	}
	refs := make([]map[int]refAnswer, len(snapshots))
	for si, snap := range snapshots {
		refs[si] = make(map[int]refAnswer)
		full := sortedKeys(need[si])
		var rest []int
		if si == 0 {
			for _, qi := range served {
				if !need[0][qi] {
					rest = append(rest, qi)
				}
			}
		}
		for _, pass := range []struct {
			idx  []int
			apro bool
		}{{full, true}, {rest, false}} {
			ra, err := referenceAnswers(snap, raw, subset(pool, pass.idx), pass.apro, workers)
			if err != nil {
				return nil, err
			}
			for i, qi := range pass.idx {
				refs[si][qi] = ra[i]
			}
		}
	}
	return refs, nil
}

// checker holds what an answer is checked against.
type checker struct {
	names map[string]int // database name → testbed index
	nDBs  int
}

func newChecker(raw *hidden.Testbed) *checker {
	c := &checker{names: make(map[string]int, raw.Len()), nDBs: raw.Len()}
	for i := 0; i < raw.Len(); i++ {
		c.names[raw.DB(i).Name()] = i
	}
	return c
}

// properties checks what the method guarantees of every answer and
// returns the selected set as sorted testbed indices.
func (c *checker) properties(r *server.SelectResponse) ([]int, error) {
	if r.Tier != "full" {
		return nil, fmt.Errorf("served at tier %q (shed: %q), want full", r.Tier, r.ShedReason)
	}
	if len(r.Databases) != reqK {
		return nil, fmt.Errorf("%d databases, want k=%d", len(r.Databases), reqK)
	}
	set := make([]int, 0, reqK)
	seen := make(map[int]bool, reqK)
	for _, name := range r.Databases {
		idx, ok := c.names[name]
		if !ok {
			return nil, fmt.Errorf("unknown database %q", name)
		}
		if seen[idx] {
			return nil, fmt.Errorf("database %q selected twice", name)
		}
		seen[idx] = true
		set = append(set, idx)
	}
	for i := 1; i < len(set); i++ {
		if set[i] < set[i-1] {
			return nil, fmt.Errorf("databases %v not in testbed order", r.Databases)
		}
	}
	if math.IsNaN(r.Certainty) || r.Certainty < 0 || r.Certainty > 1 {
		return nil, fmt.Errorf("certainty %v outside [0,1]", r.Certainty)
	}
	if r.Reached && r.Certainty < reqThreshold {
		return nil, fmt.Errorf("reached with certainty %v < t=%v", r.Certainty, reqThreshold)
	}
	if r.Probes < 0 || r.Probes > c.nDBs {
		return nil, fmt.Errorf("%d probes for %d databases", r.Probes, c.nDBs)
	}
	if r.Degraded {
		return nil, fmt.Errorf("degraded, excluded %v", r.ExcludedDBs)
	}
	return set, nil
}

// sameAsReference reports how an answer differs from the reference
// loop's, or nil when it is identical.
func sameAsReference(r *server.SelectResponse, ref refAnswer) error {
	if !equalStrings(r.Databases, ref.dbs) || r.Certainty != ref.certainty ||
		r.Probes != ref.probes || r.Reached != ref.reached {
		return fmt.Errorf("answer %v certainty %v probes %d reached %v; reference loop %v certainty %v probes %d reached %v",
			r.Databases, r.Certainty, r.Probes, r.Reached, ref.dbs, ref.certainty, ref.probes, ref.reached)
	}
	return nil
}

// sameAnswer reports whether two responses carry the same selection.
func sameAnswer(a, b *server.SelectResponse) bool {
	return equalStrings(a.Databases, b.Databases) && a.Certainty == b.Certainty &&
		a.Probes == b.Probes && a.Reached == b.Reached
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verdict is the outcome of checking one run's answers.
type verdict struct {
	failed   int
	failures []string // first few, for the log
	// corA and corP average over the measured answers; rdOnlyCorA and
	// baselineCorA score the same queries with the non-probing methods.
	corA, corP, rdOnlyCorA, baselineCorA float64
	scored                               int
	coalesced, runs                      int
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.failures) < 5 {
		v.failures = append(v.failures, fmt.Sprintf(format, args...))
	}
}

// checkAnswers checks every answer of a load phase. refs holds one
// reference per snapshot and pool query; exact is whether every answer
// must equal the reference (false under online refinement, where only
// the first answer after each swap is served by an unrefined model).
func checkAnswers(c *checker, pool []queries.Query, golden map[int]*eval.Golden, refs []map[int]refAnswer, exact bool, answers []answer) verdict {
	var v verdict
	byRun := make(map[string]*server.SelectResponse)
	for _, a := range answers {
		if a.err != nil {
			v.fail("query %q: %v", pool[a.query], a.err)
			continue
		}
		set, err := c.properties(a.resp)
		if err != nil {
			v.fail("query %q: %v", pool[a.query], err)
			continue
		}
		switch {
		case a.swappedTo >= 0:
			if err := sameAsReference(a.resp, refs[a.swappedTo][a.query]); err != nil {
				v.fail("query %q, first answer after swap to snapshot %d: %v", pool[a.query], a.swappedTo, err)
				continue
			}
		case exact:
			if err := sameAsReference(a.resp, refs[0][a.query]); err != nil {
				v.fail("query %q: %v", pool[a.query], err)
				continue
			}
		}
		// Every waiter of one coalesced run must see the same answer.
		if a.resp.ID != "" {
			if first, ok := byRun[a.resp.ID]; !ok {
				byRun[a.resp.ID] = a.resp
			} else if !sameAnswer(first, a.resp) {
				v.fail("query %q: coalesced run %s fanned out differing answers", pool[a.query], a.resp.ID)
				continue
			}
		}
		if a.window < 0 {
			continue
		}
		if a.resp.Coalesced {
			v.coalesced++
		} else {
			v.runs++
		}
		topk := golden[a.query].TopK(reqK)
		ref := refs[0][a.query]
		v.corA += eval.CorA(set, topk)
		v.corP += eval.CorP(set, topk)
		v.rdOnlyCorA += eval.CorA(ref.rdOnly, topk)
		v.baselineCorA += eval.CorA(ref.baseline, topk)
		v.scored++
	}
	if v.scored > 0 {
		n := float64(v.scored)
		v.corA, v.corP, v.rdOnlyCorA, v.baselineCorA = v.corA/n, v.corP/n, v.rdOnlyCorA/n, v.baselineCorA/n
	}
	return v
}
