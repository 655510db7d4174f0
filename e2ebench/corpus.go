package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/emit"
	"repro/internal/machine"
	"repro/internal/modsched"
	"repro/internal/regalloc"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

// regFileSize is the rotating register file size every compile
// allocates against (the CLI's value).
const regFileSize = 64

// compileInput is one distinct compile of the corpus: a source on a
// fabric, the memory image its simulation check runs on, and the report
// bytes the set-up compile produced (nil until set-up has run).
type compileInput struct {
	src  source
	fab  fabric
	mem  ddg.MapMemory
	want []byte
}

func (in *compileInput) String() string { return in.src.name + "@" + in.fab.name }

// compileOutput is everything one pass of the pipeline produced.
type compileOutput struct {
	res    *core.Result
	sch    *modsched.Schedule
	alloc  *regalloc.Result
	prog   *emit.Program
	sim    *sim.Stats
	report []byte
	// capMiss says modsched's default search cap fell below the
	// schedule's lower bound (see schedule).
	capMiss bool
}

// compile runs the CLI user's full pipeline with default options: front
// end → core.HCA → modsched.Run → regalloc.Run → emit.Build → sim.Check
// against the ddg.Interpret reference → report.Build + JSON. With a
// tracer, each public call gets a span under parent.
func compile(ctx context.Context, in *compileInput, tr *tracer, op, parent int) (*compileOutput, error) {
	out := &compileOutput{}
	var d *ddg.DDG
	var err error
	front := "kernels.build"
	if in.src.kind == "lang" {
		front = "lang.compile"
	}
	tr.call(front, op, parent, func() { d, err = in.src.build() })
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	mc := in.fab.build()
	tr.call("core.hca", op, parent, func() { out.res, err = core.HCA(ctx, d, mc, core.Options{}) })
	if err != nil {
		return nil, err
	}
	tr.call("modsched.run", op, parent, func() { out.sch, out.capMiss, err = schedule(ctx, out.res, mc) })
	if err != nil {
		return nil, err
	}
	tr.call("regalloc.run", op, parent, func() { out.alloc, err = regalloc.Run(out.res.Final, out.sch, mc, regFileSize) })
	if err != nil {
		return nil, err
	}
	tr.call("emit.build", op, parent, func() { out.prog, err = emit.Build(out.res, out.sch, out.alloc) })
	if err != nil {
		return nil, err
	}
	tr.call("sim.check", op, parent, func() {
		out.sim, err = sim.Check(out.res.Final, out.sch, mc, in.mem, in.src.simIterations(), sim.Config{})
	})
	if err != nil {
		return nil, err
	}
	tr.call("report.encode", op, parent, func() { out.report, err = report.Build(out.res, out.sch, "", nil).JSON() })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// schedule runs modsched.Run with default options. The default search
// cap, 4·(critical path length)+16, can lie below the schedule's own
// lower bound modsched.MinII on a large DDG on a narrow fabric (a 256-op
// synthetic DDG on the RCP ring: MinII 126, cap 116), and the default
// run then reports "no schedule found" without trying a single II. That
// is a defect of modsched, not fixed here: schedule reports it as a cap
// miss and searches again with the default's width, starting at MinII.
// Every other scheduling failure stands.
func schedule(ctx context.Context, res *core.Result, mc *machine.Config) (*modsched.Schedule, bool, error) {
	sch, err := modsched.Run(ctx, res.Final, res.FinalCN, mc, modsched.Config{})
	if err == nil {
		return sch, false, nil
	}
	cp, cpErr := res.Final.G.CriticalPathLength()
	minII, width := modsched.MinII(res.Final, res.FinalCN, mc), 4*cp+16
	if cpErr != nil || width >= minII {
		return nil, false, err
	}
	sch, err = modsched.Run(ctx, res.Final, res.FinalCN, mc, modsched.Config{MaxII: minII + width})
	return sch, true, err
}

// verifyCompile checks one pipeline output beyond what the pipeline
// itself checks (sim.Check already compared the simulated fabric with the
// sequential reference): the assignment is legal by the coherency
// checker, the schedule and register allocation verify, and the report
// is byte-identical to the set-up compile's.
func verifyCompile(in *compileInput, out *compileOutput) error {
	if !out.res.Legal {
		return errors.New("result not marked legal")
	}
	if err := core.CoherencyCheck(out.res); err != nil {
		return err
	}
	if err := modsched.Verify(out.res.Final, out.sch, out.res.Machine); err != nil {
		return err
	}
	if err := regalloc.Verify(out.res.Final, out.sch, out.alloc); err != nil {
		return err
	}
	if in.want != nil && !bytes.Equal(out.report, in.want) {
		return errors.New("report differs from the set-up compile's")
	}
	return nil
}

// corpusSources returns the seeded compile-corpus kernels: the six
// multimedia kernels, generated lang filters of stratified width, and
// synthetic DDGs of stratified size (32–256 ops) and recurrence latency.
// Sizes and recurrences are fixed and only shapes vary with the seed, so
// the corpus's cost and quality profile is the same for every seed.
func corpusSources(seed int64, small bool) []source {
	rng := newRand(seed, "compile-corpus")
	kernelNames, taps, sizes := tableKernels, []int{4, 7, 10, 13}, []int{32, 64, 96, 128, 160, 192, 224, 256}
	if small {
		kernelNames, taps, sizes = []string{"fir2dim"}, []int{4}, []int{32}
	}
	var srcs []source
	for _, k := range kernelNames {
		srcs = append(srcs, source{kind: "kernel", name: k})
	}
	for i, t := range taps {
		name := fmt.Sprintf("filter%d_%d", i, t)
		srcs = append(srcs, source{kind: "lang", name: name, text: langSource(rng, name, t, i)})
	}
	recLats := []int{0, 3, 4, 6}
	for i, n := range sizes {
		srcs = append(srcs, synthSource(rng, n, recLats[i%len(recLats)]))
	}
	return srcs
}

// compileSums accumulates the deterministic per-compile figures over the
// distinct compiles of a corpus.
type compileSums struct {
	mii, recv, subproblems                             int
	candidates, states, router, duplicates             int
	ii, tries, instructions, cycles, memoHit, memoMiss int
	// capMisses lists the compiles modsched's default cap could not
	// schedule (see schedule).
	capMisses []string
}

func (s *compileSums) add(in *compileInput, out *compileOutput, rec *trace.Recorder) {
	s.mii += out.res.MII.Final
	s.recv += out.res.Recvs
	s.subproblems += len(out.res.Levels)
	s.candidates += out.res.Stats.CandidatesTried
	s.states += out.res.Stats.StatesExplored
	s.router += out.res.Stats.RouterInvocations
	s.duplicates += out.res.Stats.DuplicatesPruned
	s.ii += out.sch.II
	s.instructions += out.prog.ProgramStats().Instructions
	s.cycles += int(out.sim.Cycles)
	if out.capMiss {
		s.capMisses = append(s.capMisses, in.String())
	}
	if rec != nil {
		c := rec.Counters()
		s.tries += int(c["modsched.tries"])
		s.memoHit += int(c["memo.hits"])
		s.memoMiss += int(c["memo.misses"])
	}
}

// corpusState is one set-up's product: the inputs with their expected
// reports, and the sums over them.
type corpusState struct {
	inputs []*compileInput
	sums   compileSums
}

// setupCorpus builds the corpus inputs and compiles each once, which
// records the report every timed compile must reproduce and the sums the
// run reports. In a traced run the set-up compiles also carry a
// trace.Recorder, for the counters only the recorder keeps.
func setupCorpus(ctx context.Context, cfg config) (*corpusState, error) {
	st := &corpusState{}
	for i, src := range corpusSources(cfg.seed, cfg.small) {
		d, err := src.build()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", src.name, err)
		}
		mem, err := memoryImage(d, src.simIterations(), cfg.seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", src.name, err)
		}
		for _, fab := range corpusFabrics {
			st.inputs = append(st.inputs, &compileInput{src: src, fab: fab, mem: mem})
		}
	}
	for _, in := range st.inputs {
		var rec *trace.Recorder
		if cfg.trace {
			rec = trace.New()
		}
		out, err := compile(trace.With(ctx, rec), in, nil, 0, -1)
		if err == nil {
			err = verifyCompile(in, out)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up compile %s: %w", in, err)
		}
		in.want = out.report
		st.sums.add(in, out, rec)
	}
	return st, nil
}

// runCorpus is the compile-corpus workload: one client in a closed loop
// compiling the corpus in seeded shuffled passes.
func runCorpus(ctx context.Context, cfg config) (*outcome, error) {
	o := &outcome{}
	var st *corpusState
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		start := time.Now()
		var err error
		st, err = setupCorpus(ctx, cfg)
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(start))
	}
	o.miiSum, o.recvSum = st.sums.mii, st.sums.recv
	if n := len(st.sums.capMisses); n > 0 {
		o.notes = append(o.notes, fmt.Sprintf("modsched's default cap lies below MinII on %d of %d compiles (%s); they were scheduled from MinII instead",
			n, len(st.inputs), strings.Join(st.sums.capMisses, ", ")))
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	self := map[string]time.Duration{}
	tracedOps := 0
	rng := newRand(cfg.seed, "compile-corpus-order")
	order := make([]int, len(st.inputs))
	for i := range order {
		order[i] = i
	}
	// A window is two shuffled passes over the corpus: enough samples
	// for a p90 tail per window.
	shuffled := func() []int {
		var w []int
		for pass := 0; pass < 2; pass++ {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			w = append(w, order...)
		}
		return w
	}
	split := closedLoop(cfg, o, shuffled, func(idx, op int, traced bool) opResult {
		in := st.inputs[idx]
		opTr, opCtx := (*tracer)(nil), ctx
		var rec *trace.Recorder
		if traced {
			opTr, rec = tr, trace.New()
			opCtx = trace.With(ctx, rec)
		}
		t0 := time.Now()
		root := opTr.begin("op", op, -1)
		out, err := compile(opCtx, in, opTr, op, root)
		opTr.end(root)
		r := opResult{units: 1, latency: time.Since(t0)}
		if err == nil {
			err = verifyCompile(in, out)
		}
		r.busy = time.Since(t0)
		if err == nil && traced {
			tracedOps++
			err = addSelfTimes(self, rec)
		}
		if err != nil {
			r.err = fmt.Errorf("%s: %w", in, err)
		}
		return r
	})

	if cfg.trace {
		ls := newLayerSet()
		s := st.sums
		for name, v := range map[string]int{
			"core.subproblems": s.subproblems, "see.candidates_tried": s.candidates,
			"see.states_explored": s.states, "see.router_invocations": s.router,
			"see.duplicates_pruned": s.duplicates, "modsched.ii_sum": s.ii,
			"modsched.tries": s.tries, "emit.instructions": s.instructions,
			"sim.cycles": s.cycles, "memo.hits": s.memoHit, "memo.misses": s.memoMiss,
			"modsched.default_cap_misses": len(s.capMisses),
		} {
			ls.set(name, float64(v))
		}
		ls.setSpanMeans(tr, map[string]string{
			"lang.compile_ms": "lang.compile", "core.hca_ms": "core.hca",
			"modsched.run_ms": "modsched.run", "regalloc.run_ms": "regalloc.run",
			"emit.build_ms": "emit.build", "sim.check_ms": "sim.check",
			"report.encode_ms": "report.encode",
		})
		setSelfTimes(ls, self, tracedOps)
		setOverhead(ls, split)
		o.layers = ls
		if err := tr.write(cfg.workDir, fmt.Sprintf("spans-compile-corpus-seed%d.jsonl", cfg.seed)); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// setSelfTimes records the mean per-operation self time of each core.HCA
// phase over ops traced operations.
func setSelfTimes(ls layerSet, self map[string]time.Duration, ops int) {
	if ops == 0 {
		return
	}
	for _, name := range selfPhaseMetrics {
		ls.setSamples(name, ms(self[name])/float64(ops), ops)
	}
}

// addSelfTimes adds the self times of the core.HCA phases a recorder
// holds to self.
func addSelfTimes(self map[string]time.Duration, rec *trace.Recorder) error {
	chrome, err := rec.ChromeTrace()
	if err != nil {
		return err
	}
	t, err := selfTimes(chrome)
	if err != nil {
		return err
	}
	for k, v := range t {
		self[k] += v
	}
	return nil
}

// setOverhead records the throughput of the traced and the untraced
// passes of a traced closed loop.
func setOverhead(ls layerSet, s loopSplit) {
	if s.tracedBusy > 0 {
		ls.setSamples("trace.traced_throughput_per_s", float64(s.tracedUnits)/s.tracedBusy.Seconds(), s.tracedUnits)
	}
	if s.untracedBusy > 0 {
		ls.setSamples("trace.untraced_throughput_per_s", float64(s.untracedUnits)/s.untracedBusy.Seconds(), s.untracedUnits)
	}
}
