package main

import (
	"fmt"
	"time"
)

// workload is one traffic mix against one daemon configuration. The
// testbed (corpus.HealthTestbed, 20 databases) and the serving model's
// training pool are deployment inputs, fixed as cmd/metaprobed fixes
// them with its -seed default; the workload seed draws the test
// queries, their order and their popularity.
type workload struct {
	name string
	// closedClients > 0 runs a closed loop with that many clients;
	// otherwise the load is open-loop at rate requests per second.
	closedClients int
	rate          float64
	// pool is the number of distinct test queries of each term count
	// (2 and 3) drawn from the workload seed.
	pool int
	// zipf is the exponent of the open loop's Zipf-popular draws over
	// the pool; closed-loop clients walk a seeded permutation of it.
	zipf float64
	// probeDelay wraps every serving backend in hidden.Latency.
	probeDelay time.Duration
	// speculation and onlineRefinement set the tenant's
	// metaprobe.Config fields of the same names.
	speculation      int
	onlineRefinement bool
	// swapEvery > 0 hot-swaps the serving model between two snapshots
	// every swapEvery answered requests.
	swapEvery int
}

// Request parameters: the server's defaults (cmd/metaprobed serves
// them when a request omits k and t).
const (
	reqK         = 3
	reqThreshold = 0.9
	// deploySeed is cmd/metaprobed's -seed default: testbed documents
	// and the serving model's training pool derive from it.
	deploySeed = 2004
	// trainN is cmd/metaprobed's -train default (queries per term
	// count).
	trainN = 300
	// testbedScale is cmd/metaprobed's -scale default.
	testbedScale = 0.02
	// warmup is traffic sent before measuring, so lazily built RD-table
	// rows, the facade's shell cache and the heap reach steady state.
	warmup = 3 * time.Second
)

// The pools are large because the latency tail above p97 is the ~2.5 %
// of queries that take ten or more probes: the more distinct ones of
// them a run serves, the less its p99 depends on which ones the seed
// drew. health-http's pool is smaller than swap-refine's because its
// every served query also runs through the reference loop. The open
// loop's Zipf exponent and pool keep the popular head small for the
// same reason: a slow query among the most popular moves the p99. At
// Zipf(0.5) over 8000 queries the 20 most popular carry about 4 % of
// the requests.
func workloads(nproc int) []workload {
	return []workload{
		{
			name:          "health-http",
			closedClients: nproc,
			pool:          4000,
		},
		{
			name:        "remote-probes",
			rate:        150,
			pool:        4000,
			zipf:        0.5,
			probeDelay:  10 * time.Millisecond,
			speculation: 2,
		},
		{
			name:             "swap-refine",
			closedClients:    nproc,
			pool:             8000,
			onlineRefinement: true,
			swapEvery:        500,
		},
	}
}

func findWorkload(name string, nproc int) (workload, error) {
	var names []string
	for _, w := range workloads(nproc) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
