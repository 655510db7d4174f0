package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/modsched"
)

// smokeConfig is a short run on the shrunken input sets.
func smokeConfig(t *testing.T, workload string, seed int64, traced bool) config {
	return config{workload: workload, seed: seed, seconds: 0.5, trace: traced, setups: 1, workDir: t.TempDir(), small: true}
}

// benchmarkSpec reads the metric names and units BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (endToEnd, layers map[string]string, names []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, layers = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	return endToEnd, layers, names
}

// TestSmokeEmitsEveryMetric runs every workload untraced and traced and
// requires exactly the metrics BENCHMARK.json names, with its units, and
// a last line that is the one-object JSON result a benchmark runner reads.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	endToEnd, layers, names := benchmarkSpec(t)
	if got := sortedKeys(workloads); !reflect.DeepEqual(got, sortedStrings(names)) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", got, names)
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = layers
			}
			res, err := run(context.Background(), smokeConfig(t, name, 7, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v %d/%d failed: %v", name, traced, res.Correct, res.Failed, res.Attempted, res.Failures)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m, got, unit)
				}
			}
			if !traced {
				for _, m := range []string{"setup_s", "latency_p50_ms", "throughput_per_s", "mii_sum"} {
					if res.Metrics[m].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, m, res.Metrics[m].Value)
					}
				}
			}
			var out bytes.Buffer
			if err := printResult(&out, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line %q: %v", name, lines[len(lines)-1], err)
			}
			if keys := sortedKeys(line); !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("%s: contract line keys %v", name, keys)
			}
		}
	}
}

func sortedStrings(s []string) []string {
	m := map[string]bool{}
	for _, x := range s {
		m[x] = true
	}
	return sortedKeys(m)
}

// TestSeedFlag checks that --seed takes any 64-bit integer, signed or
// unsigned, and refuses other text.
func TestSeedFlag(t *testing.T) {
	for in, want := range map[string]int64{
		"42": 42, "-3": -3,
		"18446744073709551615": -1,
		"9223372036854775808":  -9223372036854775808,
	} {
		var s seedFlag
		if err := s.Set(in); err != nil || int64(s) != want {
			t.Errorf("Set(%q) = %d, %v; want %d", in, s, err, want)
		}
	}
	for _, in := range []string{"", "x", "18446744073709551616", "1.5"} {
		var s seedFlag
		if err := s.Set(in); err == nil {
			t.Errorf("Set(%q) accepted", in)
		}
	}
}

// TestScheduleCapMiss checks the scheduling step on a compile whose
// MinII (126) lies above modsched's default search cap (116): it still
// yields a schedule that verifies, and reports a cap miss exactly when
// the default run fails.
func TestScheduleCapMiss(t *testing.T) {
	ctx := context.Background()
	d := kernels.Synthetic(kernels.SynthConfig{Ops: 256, Seed: 835160003021, RecLatency: 6})
	mc := machine.RCP(8, 2, 2)
	res, err := core.HCA(ctx, d, mc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sch, capMiss, err := schedule(ctx, res, mc)
	if err != nil {
		t.Fatal(err)
	}
	if err := modsched.Verify(res.Final, sch, mc); err != nil {
		t.Fatal(err)
	}
	_, defaultErr := modsched.Run(ctx, res.Final, res.FinalCN, mc, modsched.Config{})
	if capMiss != (defaultErr != nil) {
		t.Errorf("cap miss %v, default run error %v", capMiss, defaultErr)
	}
}

// TestSeedDiscipline checks that the inputs come from the seed alone: the
// same seed repeats every deterministic figure exactly, and another seed
// gives other inputs.
func TestSeedDiscipline(t *testing.T) {
	deterministic := []string{
		"core.subproblems", "see.candidates_tried", "see.states_explored",
		"see.router_invocations", "see.duplicates_pruned", "modsched.ii_sum",
		"modsched.tries", "emit.instructions", "sim.cycles", "memo.hits", "memo.misses",
		"dse.points", "dse.unique", "dse.deduped", "dse.memo_hit_ratio",
	}
	for _, name := range []string{"compile-corpus", "explore-sweep"} {
		var figures [2]map[string]float64
		for i := range figures {
			untraced, err := run(context.Background(), smokeConfig(t, name, 3, false))
			if err != nil {
				t.Fatal(err)
			}
			traced, err := run(context.Background(), smokeConfig(t, name, 3, true))
			if err != nil {
				t.Fatal(err)
			}
			figures[i] = map[string]float64{
				"mii_sum":      untraced.Metrics["mii_sum"].Value,
				"receives_sum": untraced.Metrics["receives_sum"].Value,
			}
			for _, m := range deterministic {
				figures[i][m] = traced.Metrics[m].Value
			}
		}
		if !reflect.DeepEqual(figures[0], figures[1]) {
			t.Errorf("%s: same seed, different figures:\n%v\n%v", name, figures[0], figures[1])
		}
	}

	if !reflect.DeepEqual(corpusSources(5, false), corpusSources(5, false)) {
		t.Error("compile-corpus: same seed, different corpus")
	}
	if reflect.DeepEqual(corpusSources(5, false), corpusSources(6, false)) {
		t.Error("compile-corpus: different seeds, same corpus")
	}
	a, b := exploreCases(5, false), exploreCases(6, false)
	if a[1].src == b[1].src && a[2].src == b[2].src {
		t.Error("explore-sweep: different seeds, same grid set")
	}
	cfg := config{seed: 5, seconds: 2}
	sa, err := newServeInputs(cfg, serveRate)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := newServeInputs(cfg, serveRate)
	if err != nil {
		t.Fatal(err)
	}
	cfg.seed = 6
	sc, err := newServeInputs(cfg, serveRate)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Error("serve-mix: same seed, different requests")
	}
	if reflect.DeepEqual(sa.reqs, sc.reqs) {
		t.Error("serve-mix: different seeds, same requests")
	}
}

// TestChecksFireOnTamperedResults proves the output checks reject a
// wrong result in each workload.
func TestChecksFireOnTamperedResults(t *testing.T) {
	ctx := context.Background()
	src := corpusSources(1, true)[0]
	d, err := src.build()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := memoryImage(d, src.simIterations(), 1)
	if err != nil {
		t.Fatal(err)
	}
	in := &compileInput{src: src, fab: corpusFabrics[0], mem: mem}
	fresh := func() *compileOutput {
		out, err := compile(ctx, in, nil, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		if err := verifyCompile(in, out); err != nil {
			t.Fatalf("untampered result rejected: %v", err)
		}
		return out
	}
	in.want = fresh().report

	out := fresh()
	out.res.CN[0] = (out.res.CN[0] + 1) % out.res.Machine.TotalCNs()
	if err := verifyCompile(in, out); err == nil {
		t.Error("compile-corpus: flipped CN assignment passed the checks")
	}
	out = fresh()
	out.report = bytes.Replace(out.report, []byte(`"legal": true`), []byte(`"legal": false`), 1)
	if err := verifyCompile(in, out); err == nil {
		t.Error("compile-corpus: altered report passed the checks")
	}

	hit := &serveReq{class: "hit", want: []byte(`{"final_mii": 3}` + "\n")}
	if err := hit.check([]byte(`{"final_mii": 4}` + "\n")); err == nil {
		t.Error("serve-mix: altered cache hit passed the check")
	}
	if err := hit.check(hit.want); err != nil {
		t.Errorf("serve-mix: identical cache hit rejected: %v", err)
	}

	cases, _, err := setupExplore(ctx, config{seed: 1, small: true})
	if err != nil {
		t.Fatal(err)
	}
	cases[0].digest[0] ^= 1
	res, err := sweepOnce(ctx, cases[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cases[0].check(res); err == nil {
		t.Error("explore-sweep: changed CanonicalJSON passed the check")
	}
}

// TestSelfTimes checks the self-time split on a hand-made trace: a
// parent with two overlapping children on another lane.
func TestSelfTimes(t *testing.T) {
	chrome := []byte(`{"traceEvents":[
		{"name":"hca","ph":"B","ts":0,"tid":0},
		{"name":"see.solve","ph":"B","ts":10,"tid":0,"args":{"parent":"hca"}},
		{"name":"see.solve","ph":"E","ts":40,"tid":0},
		{"name":"see.solve","ph":"B","ts":30,"tid":1,"args":{"parent":"hca"}},
		{"name":"see.solve","ph":"E","ts":60,"tid":1},
		{"name":"hca","ph":"E","ts":100,"tid":0}]}`)
	got, err := selfTimes(chrome)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"hca_self_ms":       50 * time.Microsecond, // 100 minus the union [10,60]
		"see.solve_self_ms": 60 * time.Microsecond,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// TestCompareRefusesOtherHostShape checks that results from different
// host shapes are never compared.
func TestCompareRefusesOtherHostShape(t *testing.T) {
	a := result{Workload: "compile-corpus", Provenance: provenance{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}}
	b := a
	if err := comparable(a, b); err != nil {
		t.Fatalf("same shape refused: %v", err)
	}
	b.Provenance.NumCPU = 4
	if err := comparable(a, b); err == nil {
		t.Error("different nproc compared")
	}
	b = a
	b.Workload = "serve-mix"
	if err := comparable(a, b); err == nil {
		t.Error("different workloads compared")
	}
}
