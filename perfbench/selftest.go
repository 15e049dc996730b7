package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"meshlab"
)

// runSelftest checks the checks: the scenario goldens reproduce at the
// pinned seeds and reject a flipped byte, and a flipped byte in a CLI
// report, a served response, or a dataset registers as a failed
// operation rather than a fast run.
func runSelftest(e *env) error {
	w, err := newWorkload("scenarios", 0)
	if err != nil {
		return err
	}
	dir := filepath.Join(e.work, "selftest")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	paths, _, _, _, err := synthesize(nil, 0, dir, w.datasets)
	if err != nil {
		return err
	}
	results := make(map[string][]*meshlab.Result)
	for _, ds := range w.datasets {
		ps, err := drivePipeline(nil, 0, 0, paths[ds.name])
		if err != nil {
			return err
		}
		results[ds.name] = ps.results
	}
	if err := checkGoldens(e.root, results); err != nil {
		return fmt.Errorf("goldens at the pinned seeds: %w", err)
	}
	q := results["quick"]
	saved := q[0].Rows[0][0]
	q[0].Rows[0][0] = string(flipAt([]byte(saved), 0))
	if checkGoldens(e.root, results) == nil {
		return errors.New("a flipped byte in a result passed the golden check")
	}
	q[0].Rows[0][0] = saved
	fmt.Println("selftest: goldens reproduce at the pinned seeds and reject a flipped byte")

	// The CLIs and meshd over the quick scenario, once cleanly, then
	// with one byte flipped in each place an output check guards.
	quick := &workload{name: "selftest", datasets: w.datasets[:1], setups: 1, passes: 2, ckpts: 1, resumes: 1, warms: 1,
		shards: 2, ckptEvery: 2, refresh: "quick", minRefreshes: 1, rate: 500, refreshRate: 500, mixSeed: 1}
	e.seconds = 1
	if _, err := runJourney(e, quick); err != nil || e.t.failed != 0 {
		return fmt.Errorf("clean run: %v, %d of %d operations failed: %v", err, e.t.failed, e.t.attempted, e.t.notes)
	}
	fmt.Printf("selftest: clean run passed %d checked operations\n", e.t.attempted)

	report := []byte("- dataset: x\n| a | 1.25 |\n")
	if sameReport("flipped report", flipAt(report, len(report)-4), report) == nil {
		return errors.New("a flipped byte in a CLI report passed the report check")
	}

	paths2, _, err := setupDatasets(e, quick)
	if err != nil {
		return err
	}
	b, err := runBatch(e, quick, paths2, map[string]metric{})
	if err != nil {
		return err
	}
	md, err := startMeshd(e, quick, paths2)
	if err != nil {
		return err
	}
	c := newClient(md.base, nil, 1, e.t)
	err = func() error {
		if err := c.waitReady("quick", 60e9); err != nil {
			return err
		}
		if c.oracles, err = fetchOracles(e, c, quick, b); err != nil {
			return err
		}
		o := c.oracles[0]
		id := o.ids[0]
		o.exps[id] = flipAt(o.exps[id], len(o.exps[id])/2)
		if c.do(query{o: o, kind: qExperiment, path: "/v1/datasets/quick/experiments/" + id, id: id}) == nil {
			return errors.New("a flipped byte in a served experiment passed the check")
		}
		o.report = flipAt(o.report, len(o.report)/2)
		o.goodRaw = nil
		if c.do(query{o: o, kind: qReport, path: "/v1/datasets/quick/report"}) == nil {
			return errors.New("a flipped byte in a served report passed the check")
		}
		return nil
	}()
	c.close()
	if _, serr := md.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	fmt.Println("selftest: flipped bytes in a CLI report and in served responses fail their checks")

	// A flipped byte in the dataset's magic: meshreport exits fast with
	// the corrupt-input code, which must count as a failed operation.
	data, err := os.ReadFile(paths2["quick"])
	if err != nil {
		return err
	}
	bad := filepath.Join(dir, "flipped.bin")
	if err := os.WriteFile(bad, flipAt(data, 0), 0o644); err != nil {
		return err
	}
	before := e.t.failed
	p, err := runProc(e.tool("meshreport"), "-data", bad, "-stream", "-out", filepath.Join(dir, "flipped.md"))
	if e.t.op(err) {
		got, rerr := os.ReadFile(filepath.Join(dir, "flipped.md"))
		if rerr != nil {
			return rerr
		}
		e.t.op(sameReport("flipped dataset", got, b.reports["quick"]))
	}
	if e.t.failed == before {
		return fmt.Errorf("a flipped dataset byte produced a passing %.3fs run", p.wall.Seconds())
	}
	fmt.Println("selftest: a flipped dataset byte registers as a failed operation")
	return nil
}

// flipAt returns a copy of b with the byte at i changed.
func flipAt(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x01
	return out
}
