package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/ddg"
	"repro/internal/dse"
	"repro/internal/trace"
)

// sweepCase is one distinct sweep of explore-sweep: a kernel and a grid,
// with the CanonicalJSON digest its set-up sweep produced.
type sweepCase struct {
	src    source
	spec   string
	d      *ddg.DDG
	grid   dse.Grid
	digest [32]byte
}

// exploreCases returns the seeded grid set:
//   - h264deblocking's fixed 16-point capacity grid n,m ∈ {8,6} ×
//     k ∈ {8,6,4,3}. The leaf column is k=3, not k=2: h264deblocking has
//     no legal assignment at k=2, and an infeasible point's error text
//     names whichever point's solve filled the shared memo first, so
//     CanonicalJSON would differ from sweep to sweep (README.md, "Known
//     defects");
//   - mpeg2inter over RCP ring neighborhoods and memory mixes, where
//     saturated neighborhoods collapse under point dedup;
//   - a seeded lang filter and a seeded 128-op synthetic kernel over
//     DSPFabric capacities.
//
// Sizes are fixed; the seed varies the shapes of the last two.
func exploreCases(seed int64, small bool) []*sweepCase {
	rng := newRand(seed, "explore-sweep")
	capGrid := "n=8,4;m=8,4;k=8,6,4,3"
	cases := []*sweepCase{
		{src: source{kind: "kernel", name: "h264deblocking"}, spec: "n=8,6;m=8,6;k=8,6,4,3"},
		{src: source{kind: "kernel", name: "mpeg2inter"}, spec: "type=rcp;clusters=8;neighbors=1,2,3,4,6;mem=all|0.2.4.6"},
		{src: source{kind: "lang", name: "sweepfilter", text: langSource(rng, "sweepfilter", 10, 3)}, spec: capGrid},
		{src: synthSource(rng, 128, 4), spec: capGrid},
	}
	if small {
		cases = []*sweepCase{
			{src: source{kind: "kernel", name: "fir2dim"}, spec: "k=8,6,4,3"},
			{src: synthSource(rng, 32, 3), spec: "type=rcp;clusters=8;neighbors=2,4,6"},
		}
	}
	return cases
}

// sweepOrder is the closed loop's cycle over the cases: the h264 grid
// runs five times per cycle, so the median operation is an h264 sweep
// whatever the seeded cases cost.
func sweepOrder(n int) []int {
	if n < 4 {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		return order
	}
	return []int{0, 1, 0, 2, 0, 3, 0, 0}
}

// sweepOnce is one operation: a dse.Sweep with a fresh shared memo.
func sweepOnce(ctx context.Context, c *sweepCase) (*dse.Result, error) {
	return dse.Sweep(ctx, c.d, c.grid, dse.Options{})
}

// check verifies one sweep's output: a non-empty Pareto front and, once
// set-up has recorded it, the set-up sweep's CanonicalJSON digest. It
// returns the output's digest.
func (c *sweepCase) check(res *dse.Result) ([32]byte, error) {
	canon, err := res.CanonicalJSON()
	if err != nil {
		return [32]byte{}, err
	}
	sum := sha256.Sum256(canon)
	if len(res.Front) == 0 {
		return sum, errors.New("empty Pareto front")
	}
	if c.digest != ([32]byte{}) && sum != c.digest {
		return sum, errors.New("CanonicalJSON differs from the set-up sweep's")
	}
	return sum, nil
}

// sweepSums accumulates the deterministic sweep figures over the
// distinct cases.
type sweepSums struct {
	mii, recv, points, unique, deduped int
	memoHits, memoMisses               int64
}

// setupExplore builds the kernels, parses the grids and sweeps each case
// once, recording its digest and the sums over its unique points.
func setupExplore(ctx context.Context, cfg config) ([]*sweepCase, sweepSums, error) {
	var sums sweepSums
	cases := exploreCases(cfg.seed, cfg.small)
	for _, c := range cases {
		var err error
		if c.d, err = c.src.build(); err != nil {
			return nil, sums, fmt.Errorf("%s: %w", c.src.name, err)
		}
		if c.grid, err = dse.ParseGrid(c.spec); err != nil {
			return nil, sums, fmt.Errorf("%s: %w", c.spec, err)
		}
		res, err := sweepOnce(ctx, c)
		if err == nil {
			c.digest, err = c.check(res)
		}
		if err != nil {
			return nil, sums, fmt.Errorf("set-up sweep %s %q: %w", c.src.name, c.spec, err)
		}
		for _, p := range res.Points {
			if p.Canonical == p.Index && p.Error == "" {
				sums.mii += p.MIIFinal
				sums.recv += p.Receives
			}
		}
		sums.points += res.Stats.Points
		sums.unique += res.Stats.Unique
		sums.deduped += res.Stats.Deduped
		sums.memoHits += res.Stats.Memo.Hits
		sums.memoMisses += res.Stats.Memo.Misses
	}
	return cases, sums, nil
}

// runExplore is the explore-sweep workload: one client in a closed loop,
// each operation one dse.Sweep with a fresh shared memo.
func runExplore(ctx context.Context, cfg config) (*outcome, error) {
	o := &outcome{}
	var cases []*sweepCase
	var sums sweepSums
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		start := time.Now()
		var err error
		if cases, sums, err = setupExplore(ctx, cfg); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(start))
	}
	o.miiSum, o.recvSum = sums.mii, sums.recv

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	self := map[string]time.Duration{}
	tracedOps := 0
	cycle := sweepOrder(len(cases))
	split := closedLoop(cfg, o, func() []int { return cycle }, func(idx, op int, traced bool) opResult {
		c := cases[idx]
		opTr, opCtx := (*tracer)(nil), ctx
		var rec *trace.Recorder
		if traced {
			opTr, rec = tr, trace.New()
			opCtx = trace.With(ctx, rec)
		}
		t0 := time.Now()
		var res *dse.Result
		var err error
		opTr.call("dse.sweep", op, -1, func() { res, err = sweepOnce(opCtx, c) })
		r := opResult{latency: time.Since(t0)}
		if err == nil {
			_, err = c.check(res)
		}
		r.busy = time.Since(t0)
		if err == nil {
			// Throughput counts grid points.
			r.units = res.Stats.Points
			if traced {
				tracedOps++
				err = addSelfTimes(self, rec)
			}
		}
		if err != nil {
			r.err = fmt.Errorf("sweep %s %q: %w", c.src.name, c.spec, err)
		}
		return r
	})

	if cfg.trace {
		ls := newLayerSet()
		ls.setSpanMeans(tr, map[string]string{"dse.sweep_ms": "dse.sweep"})
		ls.set("dse.points", float64(sums.points))
		ls.set("dse.unique", float64(sums.unique))
		ls.set("dse.deduped", float64(sums.deduped))
		ls.set("memo.hits", float64(sums.memoHits))
		ls.set("memo.misses", float64(sums.memoMisses))
		if total := sums.memoHits + sums.memoMisses; total > 0 {
			ls.set("dse.memo_hit_ratio", float64(sums.memoHits)/float64(total))
		}
		setSelfTimes(ls, self, tracedOps)
		setOverhead(ls, split)
		o.layers = ls
		if err := tr.write(cfg.workDir, fmt.Sprintf("spans-explore-sweep-seed%d.jsonl", cfg.seed)); err != nil {
			return nil, err
		}
	}
	return o, nil
}
