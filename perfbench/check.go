package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"meshlab"
	"meshlab/internal/scenario"
	"meshlab/internal/scenario/e2e"
)

// stripRunLines removes a report's two run-specific preamble lines, the
// dataset label and the experiment wall time, which legitimately differ
// between the streamed, sharded, resumed and served renderings.
func stripRunLines(md []byte) []byte {
	var out bytes.Buffer
	for _, line := range bytes.SplitAfter(md, []byte("\n")) {
		if bytes.Contains(line, []byte("dataset:")) || bytes.Contains(line, []byte("wall time")) {
			continue
		}
		out.Write(line)
	}
	return out.Bytes()
}

// sameReport checks got against the oracle report modulo run lines.
func sameReport(what string, got, want []byte) error {
	if g, w := stripRunLines(got), stripRunLines(want); !bytes.Equal(g, w) {
		return fmt.Errorf("%s: report differs from its oracle at byte %d", what, firstDiff(g, w))
	}
	return nil
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// experimentsText renders results the way `meshanalyze -exp all` prints
// them and meshd serves /experiments/{id}: each result's table plus a
// blank line.
func experimentsText(results []*meshlab.Result) []byte {
	var b bytes.Buffer
	for _, r := range results {
		b.WriteString(r.Format())
		b.WriteString("\n")
	}
	return b.Bytes()
}

// checkGoldens renders each scenario's results through e2e.Report and
// compares them with testdata/scenarios/<name>.golden. results maps a
// scenario name to its results at the scenario's pinned seed.
func checkGoldens(root string, results map[string][]*meshlab.Result) error {
	for _, name := range builtinScenarios {
		sp, err := scenario.Resolve(name)
		if err != nil {
			return err
		}
		want, err := os.ReadFile(filepath.Join(root, "testdata", "scenarios", name+".golden"))
		if err != nil {
			return fmt.Errorf("golden %s: %w", name, err)
		}
		got := e2e.Report(sp, results[name])
		if got != string(want) {
			return fmt.Errorf("scenario %s: report differs from its golden at byte %d", name, firstDiff([]byte(got), want))
		}
	}
	return nil
}

// tail returns the last few lines of a process's stderr for an error.
func tail(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 4 {
		lines = lines[len(lines)-4:]
	}
	return strings.Join(lines, " | ")
}
