// Command perfbench is meshlab's benchmark: it drives the CLIs and meshd
// built from the tree under test over datasets the tree's own meshgen
// synthesizes, checks every output, and prints one JSON result line
// holding the metrics BENCHMARK.json declares. With --trace 1 it instead calls into each module's
// public functions in process and reports per-layer metrics. See
// README.md for the workloads and the metric map.
//
// Run it through run.sh from the repository root, which builds the
// binaries first:
//
//	bash perfbench/run.sh --workload thesis --seed 1 --seconds 8 --trace 0
//	bash perfbench/run.sh --selftest
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and failed ones. An operation is a CLI run, a
// synthesis, an HTTP request, or an output check; it fails on a non-zero
// exit, a transport error, a 503 or any unexpected status, or output
// bytes that do not match their oracle.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string
}

// op records one operation; a non-nil err marks it failed.
func (t *tally) op(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.notes) < 20 {
			t.notes = append(t.notes, err.Error())
		}
	}
	return err == nil
}

// env is what every workload run needs: the binaries, a work
// directory, and the tally.
type env struct {
	root    string // repository checkout (for testdata goldens)
	bin     string // directory holding meshgen, meshreport, meshanalyze, meshd
	work    string // per-run work directory, removed by run.sh
	seconds float64
	t       *tally
}

func (e *env) tool(name string) string { return filepath.Join(e.bin, name) }

func main() {
	var (
		workload = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "selects the serving phases' query mix; the datasets are pinned")
		seconds  = flag.Float64("seconds", 10, "measured time budget of the serving phases")
		traceOn  = flag.Int("trace", 0, "0: end-to-end metrics from the CLIs and meshd; 1: per-layer metrics from an in-process traced run")
		selftest = flag.Bool("selftest", false, "check that the output checks reject corrupted bytes, and that the scenarios reproduce their goldens")
		root     = flag.String("root", ".", "repository checkout")
		bin      = flag.String("bin", "", "directory with the built meshgen, meshreport, meshanalyze and meshd")
		work     = flag.String("work", "", "work directory for datasets, checkpoints and reports")
		spans    = flag.String("spans", "", "directory the traced run writes its spans to (empty: not written)")
	)
	flag.Parse()
	if *bin == "" || *work == "" {
		fatal(errors.New("-bin and -work are required (run through run.sh)"))
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	e := &env{root: *root, bin: *bin, work: *work, seconds: *seconds, t: &tally{}}

	if *selftest {
		if err := runSelftest(e); err != nil {
			fatal(err)
		}
		fmt.Println("selftest: ok")
		return
	}
	w, err := newWorkload(*workload, *seed)
	if err != nil {
		fatal(err)
	}
	var ms map[string]metric
	switch *traceOn {
	case 0:
		ms, err = runJourney(e, w)
	case 1:
		ms, err = runTraced(e, w, *spans)
	default:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *traceOn)
	}
	if err != nil {
		fatal(err)
	}
	gated, err := declared(filepath.Join(*root, "BENCHMARK.json"), *traceOn == 1)
	if err != nil {
		fatal(err)
	}
	res := result{Attempted: e.t.attempted, Failed: e.t.failed, Metrics: map[string]metric{}}
	for _, n := range gated {
		v, ok := ms[n]
		if !ok {
			fatal(fmt.Errorf("BENCHMARK.json declares %s, which this run does not measure", n))
		}
		res.Metrics[n] = v
	}
	res.Correct = res.Failed == 0
	for _, n := range e.t.notes {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", n)
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mark := ""
		if _, ok := res.Metrics[n]; !ok {
			mark = "  (not gated)"
		}
		fmt.Printf("%-32s %14.6g %s%s\n", n, ms[n].Value, ms[n].Unit, mark)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// declared returns the metric names BENCHMARK.json gates: its
// end_to_end list, or with perLayer its per_layer list. The run reports
// exactly these in its result line and prints the rest for reading.
func declared(path string, perLayer bool) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := b.EndToEnd
	if perLayer {
		list = b.PerLayer
	}
	names := make([]string, len(list))
	for i, m := range list {
		names[i] = m.Name
	}
	return names, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
