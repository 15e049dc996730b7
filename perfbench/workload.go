package main

import (
	"fmt"
	"strconv"

	"meshlab"
	"meshlab/internal/scenario"
)

// input is one dataset file a workload synthesizes and reports on.
type input struct {
	name string // file stem and meshd registration name
	// gen is the meshgen invocation, minus -out.
	gen []string
	// opts are the same generation options, for in-process synthesis.
	opts meshlab.Options
}

// workload is one input family run through the whole user journey:
// synthesize, report (streamed, checkpointed, resumed), serve.
type workload struct {
	name     string
	datasets []input
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// passes is how many streamed-report passes run; report_s is the
	// median pass, a pass being the sum over the datasets.
	passes int
	// ckpts is how many checkpointed runs repeat, each into a fresh
	// directory; ckpt_report_s is the median. resumes is how many -resume
	// runs repeat over the last one's completed checkpoints; resume_s is
	// their median.
	ckpts, resumes int
	// warms is how many times meshd starts cold; warm_s is the median.
	// The serving phases run against the last start.
	warms     int
	shards    int
	ckptEvery int
	// refresh names the dataset re-registered in the refresh phase, and
	// minRefreshes how many re-registrations must complete in it.
	refresh      string
	minRefreshes int
	// rate is the steady phase's offered query rate, refreshRate the
	// refresh phase's.
	rate, refreshRate float64
	// mixSeed selects the query mix's requests.
	mixSeed uint64
}

// builtinScenarios are the five small built-in scenarios, in the order
// their reports are produced.
var builtinScenarios = []string{"quick", "dense-urban", "sparse-rural", "high-churn", "mixed-band-steering"}

func workloadNames() []string { return []string{"thesis", "scenarios"} }

// thesisSeed is the reference fleet's synthesis seed, meshgen's default.
const thesisSeed = 42

// newWorkload builds a workload. The datasets are pinned: thesis is the
// reference fleet (110 networks, 24 h) at seed 42, and scenarios are the
// built-in scenarios at their declared seeds, the datasets behind the
// checked-in goldens. Fleets drawn at other seeds differ too much in
// size for a regression bound to mean anything (see README.md). seed
// selects the query mix of the serving phases.
func newWorkload(name string, seed uint64) (*workload, error) {
	mix := splitmix(seed)
	switch name {
	case "thesis":
		return &workload{
			name: name,
			datasets: []input{{
				name: "ref",
				gen:  []string{"-scale", "reference", "-seed", strconv.Itoa(thesisSeed), "-flat-samples"},
				opts: meshlab.ReferenceOptions(thesisSeed),
			}},
			setups: 2, passes: 1, ckpts: 1, resumes: 2, warms: 1, shards: 4, ckptEvery: 16,
			refresh: "ref", minRefreshes: 1, rate: 2000, refreshRate: 500, mixSeed: mix,
		}, nil
	case "scenarios":
		w := &workload{
			name:   name,
			setups: 3, passes: 2, ckpts: 2, resumes: 2, warms: 2, shards: 4, ckptEvery: 2,
			refresh: "quick", minRefreshes: 3, rate: 2000, refreshRate: 500, mixSeed: mix,
		}
		for _, sc := range builtinScenarios {
			sp, err := scenario.Resolve(sc)
			if err != nil {
				return nil, err
			}
			w.datasets = append(w.datasets, input{
				name: sc,
				gen:  []string{"-scenario", sc, "-flat-samples"},
				opts: sp.Options(),
			})
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}
