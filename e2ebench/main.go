// Command e2ebench is the repository's end-to-end benchmark. It runs one
// seeded workload through the public APIs of the compiler, the service
// and the design-space explorer, checks every output, and prints the
// workload's metrics by name with their unit and sample count. See
// README.md in this directory for the workloads and metrics.
//
// Usage, from the root of a checkout:
//
//	bash e2ebench/run.sh --workload compile-corpus --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh compare old.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set; with --trace 1 they are the per-layer set, taken
// from a separate run that records spans around every public call.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one benchmark run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times the workload's set-up runs; setup_s is
	// their median and the last one feeds the timed phase.
	setups int
	// workDir holds everything a run writes (data dirs, span files).
	workDir string
	// small shrinks every input set; the package's tests use it.
	small bool
	// rate overrides serve-mix's offered rate (0 = the fixed serveRate);
	// README.md shows the capacity probe that chose serveRate.
	rate float64
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, config) (*outcome, error){
	"compile-corpus": runCorpus,
	"serve-mix":      runServe,
	"explore-sweep":  runExplore,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	cfg := config{setups: 5}
	var trace int
	var out string
	flag.StringVar(&cfg.workload, "workload", "", "workload: compile-corpus, serve-mix or explore-sweep")
	cfg.seed = 1
	flag.Var((*seedFlag)(&cfg.seed), "seed", "input seed, a 64-bit integer; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&out, "out", "", "also write the full result (with provenance) to this file")
	flag.Float64Var(&cfg.rate, "rate", 0, "serve-mix offered requests/s (0 = the benchmark's fixed rate)")
	flag.StringVar(&cfg.workDir, "work-dir", ".bench_build/e2ebench/work", "directory for data dirs and span files")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fatalf("unknown --workload %q (want compile-corpus, serve-mix or explore-sweep)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		fatalf("--seconds must be positive")
	}

	res, err := run(context.Background(), cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fatalf("print: %v", err)
	}
	if out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatalf("write %s: %v", out, err)
		}
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// seedFlag parses --seed: any signed or unsigned 64-bit integer, so
// every seed a caller draws selects an input set. An unsigned one above
// the int64 range keeps its bits.
type seedFlag int64

func (s *seedFlag) String() string { return strconv.FormatInt(int64(*s), 10) }

func (s *seedFlag) Set(v string) error {
	if n, err := strconv.ParseInt(v, 10, 64); err == nil {
		*s = seedFlag(n)
		return nil
	}
	u, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return errors.New("want a 64-bit integer")
	}
	*s = seedFlag(u)
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(2)
}

// run executes one workload and assembles its result.
func run(ctx context.Context, cfg config) (*result, error) {
	// The fork-join width of the compiler is min(GOMAXPROCS, NumCPU);
	// pinning GOMAXPROCS to the CPU count makes it the same on every run
	// of one host whatever the environment says.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	o, err := workloads[cfg.workload](ctx, cfg)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload:   cfg.workload,
		Traced:     cfg.trace,
		Provenance: newProvenance(cfg, o),
		Correct:    o.failed == 0 && o.attempted > 0,
		Attempted:  o.attempted,
		Failed:     o.failed,
		Failures:   o.failures,
		Notes:      o.notes,
	}
	if cfg.trace {
		res.Metrics = o.layers
	} else {
		res.Metrics = endToEnd(o)
	}
	return res, nil
}

// metric is one reported figure. Samples, Windows and Percentile say
// what it was computed over; they are omitted from the contract line.
type metric struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Samples    int     `json:"samples,omitempty"`
	Windows    int     `json:"windows,omitempty"`
	Percentile float64 `json:"percentile,omitempty"`
}

// provenance says where a result came from. compare refuses to put two
// results side by side when their host shape differs.
type provenance struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GitSHA     string  `json:"git_sha"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Setups     int     `json:"setups"`
	// RatePerS and LatencyLimitMs describe serve-mix's open loop (the
	// offered request rate and the goodput latency limit); closed-loop
	// workloads leave them 0.
	RatePerS       float64 `json:"rate_per_s"`
	LatencyLimitMs float64 `json:"latency_limit_ms"`
}

func newProvenance(cfg config, o *outcome) provenance {
	return provenance{
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		GitSHA:         gitSHA(),
		Workload:       cfg.workload,
		Seed:           cfg.seed,
		Seconds:        cfg.seconds,
		Setups:         cfg.setups,
		RatePerS:       o.rate,
		LatencyLimitMs: ms(o.limit),
	}
}

// gitSHA returns the commit the binary was built from, as stamped by the
// Go toolchain when it builds inside a git work tree.
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// result is the full record of one run.
type result struct {
	Workload   string            `json:"workload"`
	Traced     bool              `json:"traced"`
	Provenance provenance        `json:"provenance"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Failures   []string          `json:"failures,omitempty"`
	Notes      []string          `json:"notes,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
}

// printResult writes the human-readable table, the full result as one
// JSON line, and last the contract line.
func printResult(w io.Writer, res *result) error {
	p := res.Provenance
	fmt.Fprintf(w, "e2ebench %s seed=%d seconds=%g traced=%v go=%s gomaxprocs=%d nproc=%d sha=%s",
		res.Workload, p.Seed, p.Seconds, res.Traced, p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.GitSHA)
	if p.RatePerS > 0 {
		fmt.Fprintf(w, " rate=%g/s limit=%gms", p.RatePerS, p.LatencyLimitMs)
	}
	fmt.Fprintln(w)
	errRatio := 0.0
	if res.Attempted > 0 {
		errRatio = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "  %-28s %14.6g %-7s (%d failed of %d attempted)\n", "error_ratio", errRatio, "ratio", res.Failed, res.Attempted)
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-28s %14.6g %-7s", name, m.Value, m.Unit)
		if m.Percentile > 0 {
			fmt.Fprintf(w, " p%g", m.Percentile)
		}
		if m.Samples > 0 {
			fmt.Fprintf(w, " n=%d", m.Samples)
		}
		if m.Windows > 0 {
			fmt.Fprintf(w, " median of %d windows", m.Windows)
		}
		fmt.Fprintln(w)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  NOTE: %s\n", n)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	full, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", full)

	type short struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]short `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]short{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = short{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compareMain prints each metric of two result files (written with
// --out) side by side. It refuses results of different workloads or
// different host shapes: figures from different machines are never
// compared.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: e2ebench compare OLD.json NEW.json")
		return 2
	}
	var rs [2]result
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &rs[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench compare: %s: %v\n", filepath.Base(path), err)
			return 2
		}
	}
	if err := comparable(rs[0], rs[1]); err != nil {
		fmt.Fprintf(stderr, "e2ebench compare: refusing: %v\n", err)
		return 3
	}
	fmt.Fprintf(stdout, "%s (traced=%v): %s -> %s\n", rs[0].Workload, rs[0].Traced, rs[0].Provenance.GitSHA, rs[1].Provenance.GitSHA)
	for _, name := range sortedKeys(rs[0].Metrics) {
		a := rs[0].Metrics[name]
		b, ok := rs[1].Metrics[name]
		if !ok {
			fmt.Fprintf(stdout, "  %-28s %14.6g -> (missing)\n", name, a.Value)
			continue
		}
		change := "n/a"
		if a.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(b.Value-a.Value)/a.Value)
		}
		fmt.Fprintf(stdout, "  %-28s %14.6g -> %-14.6g %-7s %s\n", name, a.Value, b.Value, a.Unit, change)
	}
	return 0
}

// comparable reports why two results must not be compared, if they
// must not.
func comparable(a, b result) error {
	var diffs []string
	check := func(what string, x, y any) {
		if x != y {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", what, x, y))
		}
	}
	pa, pb := a.Provenance, b.Provenance
	check("workload", a.Workload, b.Workload)
	check("traced", a.Traced, b.Traced)
	check("goos", pa.GOOS, pb.GOOS)
	check("goarch", pa.GOARCH, pb.GOARCH)
	check("nproc", pa.NumCPU, pb.NumCPU)
	check("gomaxprocs", pa.GOMAXPROCS, pb.GOMAXPROCS)
	check("go version", pa.GoVersion, pb.GoVersion)
	check("seconds", pa.Seconds, pb.Seconds)
	check("rate", pa.RatePerS, pb.RatePerS)
	check("latency limit", pa.LatencyLimitMs, pb.LatencyLimitMs)
	if len(diffs) > 0 {
		return errors.New(strings.Join(diffs, "; "))
	}
	return nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
