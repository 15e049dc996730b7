// Command meshreport runs every experiment against a dataset and emits a
// markdown report recording paper-reported versus measured results for
// each table and figure. It is the generator of EXPERIMENTS.md.
//
// Usage:
//
//	meshreport -seed 42 -scale quick -out EXPERIMENTS.md
//	meshreport -data fleet.jsonl -out EXPERIMENTS.md
//	meshreport -scale quick -workers 1 -out EXPERIMENTS.md   # serial scheduling
//	meshreport -scale reference -dataset fleet.bin           # cache synthesis
//	meshreport -scale reference -dataset fleet.bin -stream   # must stream, never regenerate
//	meshreport -scenario dense-urban -dataset dense.bin      # declarative scenario, cached
//	meshreport -scenario dense-urban -data dense.bin -stream # stream + validate identity
//
// -scenario resolves a declarative spec (a built-in name or a file path;
// schema: docs/SCENARIOS.md) in place of -scale. With -data, the walk
// doubles as identity validation: a file generated from a different
// scenario fails with guidance instead of silently reporting over the
// wrong dataset. With -dataset, a stale cache is regenerated.
//
// Experiments and dataset synthesis fan out across a worker pool
// (-workers, default all cores; 1 schedules networks and experiments
// serially, though some analysis kernels keep their internal
// concurrency); the output is byte-identical at any pool size. With
// -dataset, the first run writes the synthesized fleet to the given path
// and later runs with the same seed/scale load it instead of
// re-synthesizing (a mismatched or unreadable file is regenerated).
//
// Binary datasets run through the single-pass streaming suite
// (meshlab.StreamFleet): networks are decoded, analyzed, and released one
// bounded window at a time, so peak memory is the derived data, not the
// fleet, and a cache's flat-sample section primes the §4 analysis so warm
// starts skip re-flattening probe data. JSON-lines input and cache misses
// fall back to materializing; -stream forbids that fallback and errors
// with guidance instead, for runs that must stay within derived-data
// memory. The report is byte-identical on every path (see docs/FORMAT.md).
//
// -shards N runs the suite as a fault-tolerant sharded stream over an
// MLF2 -data file (or a directory of per-shard MLF2 files): transient
// I/O failures are retried per shard (-max-retries), corrupt shards are
// quarantined, and -allow-partial lets the report complete in degraded
// mode — the coverage manifest goes to stderr and the report preamble
// names the run degraded.
//
// -checkpoint DIR makes the sharded run crash-resumable: every
// -checkpoint-every fully-observed networks, each shard durably
// snapshots its accumulator state into DIR (atomic temp+fsync+rename,
// CRC-guarded, last two generations kept). A killed run restarted with
// -resume seeks straight past the checkpointed work and produces a
// byte-identical report; checkpoints from a different dataset or shard
// layout are a usage error (exit 2), and stale or corrupt generations
// are skipped by checksum and reported in the manifest. -checkpoint
// without -shards runs one shard.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error (including a
// -resume dataset mismatch), 3 corrupt input, 4 transient-retry budget
// exhausted, 130 interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"meshlab"
	"meshlab/internal/conc"
	"meshlab/internal/report"
	"meshlab/internal/rusage"
	"meshlab/internal/scenario"
)

// usageError marks an error as the caller's invocation being wrong (bad
// flag, bad combination), mapping it to exit code 2 instead of the
// runtime-failure codes.
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// exitCode implements the documented contract: 2 for usage errors
// (flag-parse failures, and a -resume whose checkpoints name a
// different dataset), then the streaming classification — 3 corrupt
// input, 4 transient exhaustion, 130 interrupted, 1 anything else. The
// authoritative table lives on shard.ExitCode.
func exitCode(err error) int {
	var u usageError
	if errors.As(err, &u) || errors.Is(err, flag.ErrHelp) || errors.Is(err, meshlab.ErrCheckpointMismatch) {
		return 2
	}
	return meshlab.ShardExitCode(err)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "meshreport: %v\n", err)
		os.Exit(exitCode(err))
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("meshreport", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		data    = fs.String("data", "", "dataset file (empty: generate from -seed/-scale)")
		cache   = fs.String("dataset", "", "dataset cache path: loaded when it matches -seed/-scale, (re)written otherwise")
		seed    = fs.Uint64("seed", 42, "generation seed when -data is empty")
		scale   = fs.String("scale", "quick", "generation scale when -data is empty: quick|reference")
		out     = fs.String("out", "EXPERIMENTS.md", "output markdown path")
		workers = fs.Int("workers", 0, "process-wide worker budget for every parallel kernel — synthesis, probe links, experiment scheduling, streaming decode (0: all cores, 1: effectively single-threaded)")
		stream  = fs.Bool("stream", false, "require the single-pass streaming suite: error (with guidance) instead of materializing or regenerating when the dataset cannot stream")
		shards  = fs.Int("shards", 0, "run the suite as N fault-tolerant shards over an MLF2 -data file or shard directory (0: single-pass)")
		retries = fs.Int("max-retries", 3, "per-shard transient-failure retry budget (sharded mode)")
		partial = fs.Bool("allow-partial", false, "complete a degraded report without quarantined shards, printing a coverage manifest to stderr (default: a corrupt shard is fatal)")
		ckdir   = fs.String("checkpoint", "", "checkpoint directory: durably snapshot each shard's progress so a killed run can -resume (implies one shard if -shards is 0)")
		ckevery = fs.Int("checkpoint-every", 16, "networks between durable checkpoints per shard")
		resume  = fs.Bool("resume", false, "resume from the newest valid checkpoints in -checkpoint before streaming")
		rss     = fs.Bool("rusage", false, "print the process max RSS (getrusage) after the run — what the CI guardrail records")
		scen    = fs.String("scenario", "", "declarative scenario: a built-in name or a spec-file path (replaces -scale; with -data, the file is validated against the scenario)")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	// One knob bounds every parallel kernel in the process — synthesis,
	// experiment scheduling, the stream pipeline, §4 penalty scopes,
	// probe-link fan-out, and wire sample-group decoding — so -workers 1
	// runs effectively single-threaded.
	conc.SetBudget(*workers)
	if *data != "" && *cache != "" {
		return usagef("-data and -dataset are mutually exclusive: -data reads a fixed file, -dataset manages a synthesis cache")
	}
	if (*shards != 0 || *ckdir != "") && *data == "" {
		return usagef("-shards/-checkpoint stream a binary dataset: pass -data fleet.bin or -data shard-dir/")
	}
	if *resume && *ckdir == "" {
		return usagef("-resume needs -checkpoint DIR to resume from")
	}
	k := *shards
	if k == 0 && *ckdir != "" {
		// -checkpoint alone: one shard, byte-identical to the plain
		// streaming suite but resumable.
		k = 1
	}

	// Resolve the generation identity: a scenario spec or the -scale/-seed
	// knobs. ident labels the report; regen is the meshgen invocation
	// -stream guidance quotes.
	var (
		opts  meshlab.Options
		sp    *scenario.Spec
		ident string
		regen string
	)
	if *scen != "" {
		scaleSet, seedSet := false, false
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "scale":
				scaleSet = true
			case "seed":
				seedSet = true
			}
		})
		if scaleSet {
			return usagef("-scenario conflicts with -scale: the spec declares the fleet and probe window")
		}
		if k != 0 {
			return usagef("-scenario does not combine with -shards/-checkpoint: the sharded walk cannot validate dataset identity; stream it plainly first")
		}
		var err error
		sp, err = scenario.Resolve(*scen)
		if err != nil {
			return usageError{err}
		}
		opts = sp.Options()
		if seedSet {
			opts.Seed = *seed
		}
		ident = fmt.Sprintf("scenario %s, seed %d", sp.Name, opts.Seed)
		regen = fmt.Sprintf("meshgen -scenario %s", *scen)
	} else {
		switch *scale {
		case "quick":
			opts = meshlab.QuickOptions(*seed)
		case "reference":
			opts = meshlab.ReferenceOptions(*seed)
		default:
			return usagef("unknown scale %q", *scale)
		}
		ident = fmt.Sprintf("%s, seed %d", *scale, *seed)
		regen = fmt.Sprintf("meshgen -scale %s -seed %d", *scale, *seed)
	}
	opts.Workers = *workers

	so := meshlab.ShardOptions{
		Shards: k, Workers: *workers, MaxRetries: *retries, AllowPartial: *partial,
		CheckpointDir: *ckdir, CheckpointEvery: *ckevery, Resume: *resume,
	}
	results, sum, label, expDur, err := obtainResults(*data, *cache, opts, sp, ident, regen, *workers, *stream, k != 0, so)
	if err != nil {
		return err
	}

	md := report.Markdown(report.Preamble{Label: label, Sum: sum, ExpDuration: expDur}, results)
	if err := os.WriteFile(*out, []byte(md), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d experiments)\n", *out, len(results))
	if *rss {
		fmt.Fprintf(stdout, "max RSS (getrusage): %d MB\n", rusage.MaxRSSBytes()>>20)
	}
	return nil
}

// obtainResults produces the full suite's results plus a dataset summary
// and label for the report preamble. Binary datasets run through the
// single-pass streaming suite; everything else (JSON lines, cache misses,
// direct generation) materializes a fleet and runs it with RunFleet —
// unless forceStream forbids the fallback. opts is the resolved
// generation identity (from -scenario or -scale/-seed), ident its short
// label, and regen the meshgen invocation that guidance messages quote.
// A non-nil sp makes a -data walk double as identity validation: the
// file must be the scenario's dataset, and a mismatch is an error, never
// a silent reuse. The returned duration covers experiment execution only
// (for streaming, the walk is the execution).
func obtainResults(data, cache string, opts meshlab.Options, sp *scenario.Spec, ident, regen string, workers int, forceStream, sharded bool, so meshlab.ShardOptions) ([]*meshlab.Result, *meshlab.StreamSummary, string, time.Duration, error) {
	if data != "" {
		if sharded {
			return runSharded(data, so)
		}
		stream := meshlab.StreamOptions{Workers: workers}
		label := fmt.Sprintf("%s (streamed)", data)
		if sp != nil {
			if opts.CacheValidatable() {
				stream.Validate = &opts
				label = fmt.Sprintf("%s (streamed; validated against %s)", data, ident)
			} else {
				label = fmt.Sprintf("%s (streamed; %s declares overrides a dataset cannot record, identity unvalidated)", data, ident)
			}
		}
		start := time.Now()
		results, sum, err := meshlab.StreamFleet(data, stream)
		switch {
		case err == nil:
			return results, sum, label, time.Since(start), nil
		case errors.Is(err, meshlab.ErrCacheMismatch):
			return nil, nil, "", 0, fmt.Errorf(
				"%s is not the %s dataset: %w\nregenerate it: `%s -flat-samples -out %s`", data, ident, err, regen, data)
		case forceStream:
			return nil, nil, "", 0, fmt.Errorf("-stream: %w", err)
		case sp != nil, !errors.Is(err, meshlab.ErrNotStreamable):
			// A scenario-validated walk never falls back to an
			// unvalidated materialization.
			return nil, nil, "", 0, err
		}
		f, err := meshlab.LoadFleet(data)
		if err != nil {
			return nil, nil, "", 0, err
		}
		return runFleet(f, data)
	}
	if cache != "" {
		if opts.CacheValidatable() {
			start := time.Now()
			results, sum, err := meshlab.StreamFleet(cache, meshlab.StreamOptions{Workers: workers, Validate: &opts})
			if err == nil {
				return results, sum, fmt.Sprintf("%s (cache hit, synthesis skipped; streamed)", cache), time.Since(start), nil
			}
			if forceStream {
				return nil, nil, "", 0, fmt.Errorf(
					"-stream: %s cannot serve the streaming suite: %w\nregenerate it first: `%s -dataset %s` (or rerun without -stream to synthesize and materialize)",
					cache, err, regen, cache)
			}
			// Any failure — missing file, mismatch, corruption — falls back
			// to the materializing cache path, which regenerates.
		} else if forceStream {
			return nil, nil, "", 0, fmt.Errorf("-stream: these options cannot be validated against a cache file, so a streamed %s cannot be trusted", cache)
		}
		f, hit, err := meshlab.LoadOrGenerateFleet(cache, opts)
		if err != nil {
			return nil, nil, "", 0, err
		}
		switch {
		case hit:
			return runFleet(f, fmt.Sprintf("%s (cache hit, synthesis skipped)", cache))
		case !opts.CacheValidatable():
			return runFleet(f, fmt.Sprintf("generated in-memory (%s; -dataset bypassed: options not cache-validatable)", ident))
		default:
			return runFleet(f, fmt.Sprintf("%s (cache written: %s)", cache, ident))
		}
	}
	if forceStream {
		return nil, nil, "", 0, fmt.Errorf("-stream needs a dataset to walk: pass -data fleet.bin or -dataset cache.bin")
	}
	f, err := meshlab.GenerateFleet(opts)
	if err != nil {
		return nil, nil, "", 0, err
	}
	return runFleet(f, fmt.Sprintf("generated in-memory (%s)", ident))
}

// runSharded runs the suite as a fault-tolerant sharded stream. The
// coverage manifest of a degraded run goes to stderr (so the report and
// the wrote-line on stdout stay clean), and the degradation is named in
// the report's dataset label.
func runSharded(data string, so meshlab.ShardOptions) ([]*meshlab.Result, *meshlab.StreamSummary, string, time.Duration, error) {
	start := time.Now()
	res, err := meshlab.ShardedStream(context.Background(), data, so)
	if err != nil {
		return nil, nil, "", 0, err
	}
	sum := &meshlab.StreamSummary{
		Meta: res.Meta, Networks: res.Networks, NetworksBG: res.NetworksBG,
		NetworksN: res.NetworksN, ProbeSets: res.ProbeSets, FlatSamples: res.FlatSamples,
	}
	label := fmt.Sprintf("%s (sharded stream, %d shards)", data, len(res.Manifest.Shards))
	if res.Manifest.Degraded || res.Manifest.CheckpointNotes() {
		fmt.Fprint(os.Stderr, res.Manifest.Format())
	}
	if res.Manifest.Degraded {
		label += fmt.Sprintf("; DEGRADED: %d of %d networks skipped",
			len(res.Manifest.Skipped), res.Networks+len(res.Manifest.Skipped))
	}
	return res.Results, sum, label, time.Since(start), nil
}

// runFleet runs the suite over an in-memory fleet; its summary feeds
// the report preamble.
func runFleet(f *meshlab.Fleet, label string) ([]*meshlab.Result, *meshlab.StreamSummary, string, time.Duration, error) {
	start := time.Now()
	results, sum, err := meshlab.RunFleet(f)
	if err != nil {
		return nil, nil, "", 0, err
	}
	return results, sum, label, time.Since(start), nil
}
