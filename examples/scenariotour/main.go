// Scenariotour: the declarative-scenario workflow as a library user
// sees it — list the built-in catalog, parse a spec from JSON, compile
// it to generation options, and run the polling e2e harness to a
// converged per-scenario report (the same report the checked-in goldens
// pin).
//
//	go run ./examples/scenariotour
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"meshlab/internal/scenario"
	"meshlab/internal/scenario/e2e"
)

func main() {
	// The embedded catalog: every scenarios/*.json, by name.
	fmt.Println("built-in scenarios:")
	for _, name := range scenario.Names() {
		sp, err := scenario.Builtin(name)
		if err != nil {
			log.Fatal(err)
		}
		total, bg, n := sp.Datasets()
		fmt.Printf("  %-20s %2d networks, %2d datasets (bg %d, n %d)\n",
			name, sp.Fleet.Networks, total, bg, n)
	}
	fmt.Println()

	// A spec is just strict JSON; Parse validates every field and stamps
	// the sha256 that pins the scenario's identity in golden reports.
	raw := []byte(`{
		"version": 1,
		"name": "tour",
		"description": "a tiny two-network tour fleet",
		"seed": 11,
		"fleet": {
			"networks": 2,
			"env_mix": {"indoor": 2},
			"band_mix": {"bg": 1, "both": 1},
			"size": {"min": 3, "max": 6, "log_mean": 1.3, "log_std": 0.3}
		},
		"probe": {"duration_s": 1800, "interval_s": 300}
	}`)
	sp, err := scenario.Parse(raw, "tour.json")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed %s (spec sha256 %s)\n", sp.Name, sp.SHA256)

	// Compilation is pure: equal specs always yield equal options, and
	// equal options generate byte-identical datasets.
	opts := sp.Options()
	fmt.Printf("compiled: seed %d, %d networks, probe %.0fs @ %.0fs\n\n",
		opts.Seed, opts.Fleet.NumNetworks, opts.Probe.Duration, opts.Probe.ReportInterval)

	// The e2e harness: synthesize once, start the streamed suite in the
	// background, poll until the atomically published report converges.
	dir, err := os.MkdirTemp("", "scenariotour")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	h := e2e.New(dir)
	defer h.Close() // joins the run before the directory is removed
	dataset, err := h.Synthesize(sp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesized %s\n", filepath.Base(dataset))

	run := h.Start(sp, dataset, e2e.Streamed())
	report, err := h.WaitConverged(run)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged: %s (%d bytes)\n\n", filepath.Base(run.Artifact), len(report))
	fmt.Print(string(report))
}
