package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/driver"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/modsched"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/service/middleware"
	"repro/internal/store"
	"repro/internal/trace"
)

// serve-mix's open loop. The rate is about 0.4 of the capacity this mix
// measured on a 2-vCPU host (README.md), so queueing does not amplify
// host noise; a request counts toward goodput only when it finishes OK
// within the latency limit.
const (
	serveRate   = 400.0
	serveLimit  = 100 * time.Millisecond
	serveWindow = 2 * time.Second
)

// serveReq is one request of the timed phase.
type serveReq struct {
	class string // "hit", "near", "cold" or "batch"
	at    time.Duration
	path  string
	body  []byte
	keys  []string // cache keys of the compiles it asks for
	// want is the expected body of a hit; wantBatch the expected result
	// of each batch entry. Misses have neither.
	want      []byte
	wantBatch [][]byte
	// compile is the request of a miss, kept for the in-process check.
	compile service.CompileRequest
	sample  bool // re-check against an in-process compile
}

// served is the client-side record of one request.
type served struct {
	latency time.Duration // from when the request was due
	late    time.Duration // how late the generator sent it
	done    time.Duration // completion, since the timed phase began
	body    []byte
	err     error
}

// serveInputs is serve-mix's seeded input set.
type serveInputs struct {
	history []service.CompileRequest
	hot     []service.CompileRequest
	reqs    []*serveReq
}

// hotRequests returns the seeded hot set: five multimedia kernels and
// synthetic DDGs of 48–128 ops. h264deblocking stays out: its near
// repeats (feedback especially) would dominate the tail. Its near-repeat variants fit the
// service's default 2048-entry subproblem memo.
func hotRequests(rng *rand.Rand, small bool) []service.CompileRequest {
	kernelNames, synth := []string{"fir2dim", "idcthor", "mpeg2inter", "fft8", "sad16"}, 15
	if small {
		kernelNames, synth = []string{"fir2dim"}, 2
	}
	var hot []service.CompileRequest
	for _, k := range kernelNames {
		hot = append(hot, service.CompileRequest{Kernel: k, Options: service.OptionsSpec{Schedule: true}})
	}
	for i := 0; i < synth; i++ {
		hot = append(hot, service.CompileRequest{
			Synth:   &service.SynthSpec{Ops: 48 + 16*(i%6), Seed: rng.Int63n(1 << 40), RecLatency: []int{0, 3, 4}[i%3]},
			Options: service.OptionsSpec{Schedule: true},
		})
	}
	return hot
}

// nearVariants returns every variant of a hot request that misses the
// result cache but shares subproblems with it: other level-1/leaf
// capacities (level 0 unchanged), scheduling on or off, seeding on or
// off, and the §5 feedback loop.
func nearVariants(base service.CompileRequest) []service.CompileRequest {
	var out []service.CompileRequest
	for _, m := range []int{8, 7, 6, 5} {
		for _, k := range []int{8, 7, 6, 5, 4} {
			for _, sched := range []bool{true, false} {
				for _, noSeed := range []bool{false, true} {
					if m == 8 && k == 8 && sched && !noSeed {
						continue // the base request itself
					}
					v := base
					v.Machine = service.MachineSpec{N: 8, M: m, K: k}
					v.Options = service.OptionsSpec{Schedule: sched, DisableSeeding: noSeed}
					out = append(out, v)
				}
			}
		}
	}
	fb := base
	fb.Options = service.OptionsSpec{Feedback: true}
	return append(out, fb)
}

// coldRequest returns the i-th never-repeated request: a fresh lang
// source every third time, else a fresh synthetic DDG. Sizes cycle so
// every seed asks for the same mix of sizes.
func coldRequest(rng *rand.Rand, i int) service.CompileRequest {
	if i%3 == 2 {
		name := fmt.Sprintf("cold%d", i)
		return service.CompileRequest{Source: langSource(rng, name, 4+i%9, i/3), Options: service.OptionsSpec{Schedule: true}}
	}
	return service.CompileRequest{
		Synth:   &service.SynthSpec{Ops: 32 + 8*(i%9), Seed: rng.Int63n(1 << 40), RecLatency: []int{0, 3, 5}[i%3]},
		Options: service.OptionsSpec{Schedule: true},
	}
}

// mixBlock is the request mix: every block of twenty consecutive
// arrivals holds these classes in a seeded order. Hot repeats read the
// result cache ("history" asks for a result of the data dir's earlier
// life, which the LRU may no longer hold and the durable store then
// serves); near repeats miss the cache but hit the subproblem memo; cold
// requests run a full compile and a fsynced store write; batches carry a
// duplicate entry. Compiles are a tenth of the requests, so the median
// request is a cache read.
var mixBlock = []string{
	"hit", "hit", "hit", "hit", "hit", "hit", "hit", "hit", "hit", "hit",
	"hit", "hit", "hit", "hit", "hit", "history", "history", "batch", "near", "cold",
}

// newServeInputs builds the seeded inputs. The arrivals are a Poisson
// process at rate over seconds, conditioned on its expected count: that
// many uniformly drawn instants, sorted.
func newServeInputs(cfg config, rate float64) (*serveInputs, error) {
	rng := newRand(cfg.seed, "serve-mix")
	in := &serveInputs{hot: hotRequests(rng, cfg.small)}
	nHistory := 300
	if cfg.small {
		nHistory = 8
	}
	for i := 0; i < nHistory; i++ {
		in.history = append(in.history, service.CompileRequest{
			Synth:   &service.SynthSpec{Ops: 24 + rng.Intn(17), Seed: rng.Int63n(1 << 40)},
			Options: service.OptionsSpec{Schedule: true},
		})
	}
	var near []service.CompileRequest
	for _, h := range in.hot {
		near = append(near, nearVariants(h)...)
	}
	rng.Shuffle(len(near), func(i, j int) { near[i], near[j] = near[j], near[i] })
	hotOrder, historyOrder := rng.Perm(len(in.hot)), rng.Perm(len(in.history))

	horizon := cfg.seconds * float64(time.Second)
	n := int(rate*cfg.seconds + 0.5)
	at := make([]float64, n)
	for i := range at {
		at[i] = rng.Float64() * horizon
	}
	sort.Float64s(at)
	block := append([]string(nil), mixBlock...)
	var nHot, nHist, nNear, nCold int
	for i := 0; i < n; i++ {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		r := &serveReq{class: block[i%len(block)], at: time.Duration(at[i]), path: "/v1/compile"}
		var cr service.CompileRequest
		switch r.class {
		case "hit":
			cr = in.hot[hotOrder[nHot%len(hotOrder)]]
			nHot++
		case "history":
			r.class = "hit"
			cr = in.history[historyOrder[nHist%len(historyOrder)]]
			nHist++
		case "near":
			if nNear >= len(near) {
				return nil, fmt.Errorf("more near repeats than the %d variants of the hot set", len(near))
			}
			cr = near[nNear]
			nNear++
		case "cold":
			cr = coldRequest(rng, nCold)
			nCold++
		case "batch":
			r.path = "/v1/compile/batch"
			var batch service.BatchRequest
			for _, j := range rng.Perm(len(in.hot))[:3] {
				batch.Entries = append(batch.Entries, in.hot[j])
			}
			batch.Entries = append(batch.Entries, batch.Entries[rng.Intn(3)])
			for _, e := range batch.Entries {
				key, err := service.RequestKey(e)
				if err != nil {
					return nil, err
				}
				r.keys = append(r.keys, key)
			}
			b, err := json.Marshal(batch)
			if err != nil {
				return nil, err
			}
			r.body = b
			in.reqs = append(in.reqs, r)
			continue
		}
		key, err := service.RequestKey(cr)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(cr)
		if err != nil {
			return nil, err
		}
		r.body, r.keys, r.compile = b, []string{key}, cr
		r.sample = r.class != "hit" && rng.Float64() < 0.1
		in.reqs = append(in.reqs, r)
	}
	return in, nil
}

// daemon is the service stack cmd/hcad builds, served on loopback.
type daemon struct {
	svc     *service.Service
	journal *store.JobStore
	srv     *http.Server
	done    chan error
}

// startDaemon opens the durable data dir and starts the service behind
// the daemon's middleware chain on ln. It returns once the service has
// warmed its cache from the store.
func startDaemon(dir string, ln net.Listener) (*daemon, error) {
	results, err := store.Open(filepath.Join(dir, "results"))
	if err != nil {
		return nil, err
	}
	journal, err := store.OpenJobs(filepath.Join(dir, "jobs.jsonl"), 1024)
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{Workers: runtime.NumCPU(), Store: results, Journal: journal})
	handler := middleware.Chain(svc.Handler(),
		middleware.Recover(func(v any) { log.Printf("e2ebench: daemon panic: %v", v) }),
		middleware.Logging(func(string, ...any) {}),
		middleware.Timeout(time.Minute),
	)
	d := &daemon{svc: svc, journal: journal, srv: &http.Server{Handler: handler}, done: make(chan error, 1)}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// stop drains the daemon: the listener closes, in-flight requests
// finish, the service drains and the journal is synced and closed.
func (d *daemon) stop() error {
	err := d.srv.Shutdown(context.Background())
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.svc.Close()
	if cerr := d.journal.Close(); err == nil {
		err = cerr
	}
	return err
}

// client posts requests over at most NumCPU connections.
type client struct {
	http *http.Client
	base string
}

func newClient(addr string) *client {
	n := runtime.NumCPU()
	return &client{
		http: &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n},
		},
		base: "http://" + addr,
	}
}

// post sends body and returns the response body of a 200.
func (c *client) post(path string, body []byte) ([]byte, error) {
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// reportFigures is the part of a compile report the benchmark reads.
type reportFigures struct {
	Legal    bool `json:"legal"`
	FinalMII int  `json:"final_mii"`
	Receives int  `json:"receives"`
}

// compactJSON strips insignificant whitespace: the batch endpoint
// re-indents the reports it embeds.
func compactJSON(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	err := json.Compact(&buf, b)
	return buf.Bytes(), err
}

func parseReport(body []byte) (reportFigures, error) {
	var f reportFigures
	if err := json.Unmarshal(body, &f); err != nil {
		return f, fmt.Errorf("report: %v", err)
	}
	if !f.Legal {
		return f, errors.New("report not legal")
	}
	return f, nil
}

// check validates one response: the status was 200 (post returned no
// error); a hit is byte-identical to the body of the first miss; every
// batch entry is done and, up to whitespace, identical to its hot body;
// a miss is a legal report.
func (r *serveReq) check(body []byte) error {
	switch r.class {
	case "hit":
		if !bytes.Equal(body, r.want) {
			return errors.New("cache hit differs from the first miss")
		}
	case "batch":
		var resp service.BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("batch: %v", err)
		}
		if len(resp.Entries) != len(r.wantBatch) || resp.Deduped != 1 {
			return fmt.Errorf("batch: %d entries, %d deduped", len(resp.Entries), resp.Deduped)
		}
		for i, e := range resp.Entries {
			got, err := compactJSON(e.Result)
			if err != nil || e.State != service.StateDone || e.Error != "" || !bytes.Equal(got, r.wantBatch[i]) {
				return fmt.Errorf("batch entry %d: state %s %q", i, e.State, e.Error)
			}
		}
	default:
		_, err := parseReport(body)
		return err
	}
	return nil
}

// verifyInProcess compiles a miss's request in process through the same
// public pipeline the service runs (core.HCA, modsched.Run or the
// feedback driver, then report.Build + JSON) and requires the served
// body to be byte-identical.
func verifyInProcess(ctx context.Context, cr service.CompileRequest, body []byte, tr *tracer, op int) error {
	src := source{kind: "kernel", name: cr.Kernel}
	switch {
	case cr.Synth != nil:
		src = source{kind: "synth", synth: kernels.SynthConfig{Ops: cr.Synth.Ops, Seed: cr.Synth.Seed, RecLatency: cr.Synth.RecLatency}}
	case cr.Source != "":
		src = source{kind: "lang", text: cr.Source}
	}
	front := "kernels.build"
	if src.kind == "lang" {
		front = "lang.compile"
	}
	var d *ddg.DDG
	var err error
	tr.call(front, op, -1, func() { d, err = src.build() })
	if err != nil {
		return err
	}
	spec := cr.Machine
	if spec.N == 0 {
		spec = service.MachineSpec{N: 8, M: 8, K: 8}
	}
	mc := machine.DSPFabric64(spec.N, spec.M, spec.K)
	opt := core.Options{DisableSeeding: cr.Options.DisableSeeding}
	var rep *report.Report
	if cr.Options.Feedback {
		var fb *driver.ScheduledResult
		tr.call("driver.feedback", op, -1, func() { fb, err = driver.HCAWithFeedback(ctx, d, mc, opt) })
		if err != nil {
			return err
		}
		rep = report.Build(fb.Result, fb.Schedule, fb.Variant, nil)
	} else {
		var res *core.Result
		tr.call("core.hca", op, -1, func() { res, err = core.HCA(ctx, d, mc, opt) })
		if err != nil {
			return err
		}
		var sch *modsched.Schedule
		if cr.Options.Schedule {
			tr.call("modsched.run", op, -1, func() { sch, err = modsched.Run(ctx, res.Final, res.FinalCN, mc, modsched.Config{}) })
			if err != nil {
				return err
			}
		}
		rep = report.Build(res, sch, "", nil)
	}
	var b []byte
	tr.call("report.encode", op, -1, func() { b, err = rep.JSON() })
	if err != nil {
		return err
	}
	if !bytes.Equal(append(b, '\n'), body) {
		return errors.New("served body differs from the in-process compile")
	}
	return nil
}

// serveSetup is one set-up's product.
type serveSetup struct {
	d      *daemon
	c      *client
	warm   time.Duration
	hotRaw [][]byte // hot bodies as served, trailing newline included
}

// setupServe copies the data dir the earlier service life left, binds
// the loopback listener (neither is timed), then — timed — opens the
// durable store, starts the daemon stack and compiles the hot set
// through it.
func setupServe(template, dir string, in *serveInputs) (*serveSetup, time.Duration, error) {
	if err := copyTree(template, dir); err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	start := time.Now()
	d, err := startDaemon(dir, ln)
	if err != nil {
		ln.Close()
		return nil, 0, err
	}
	st := &serveSetup{d: d, c: newClient(ln.Addr().String()), warm: time.Since(start)}
	for _, h := range in.hot {
		b, err := json.Marshal(h)
		if err == nil {
			b, err = st.c.post("/v1/compile", b)
		}
		if err == nil {
			_, err = parseReport(b)
		}
		if err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("hot set: %w", err)
		}
		st.hotRaw = append(st.hotRaw, b)
	}
	return st, time.Since(start), nil
}

// populate runs the untimed earlier service life that leaves the
// history's results in the data dir, and returns each history body.
func populate(dir string, history []service.CompileRequest) ([][]byte, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(dir, ln)
	if err != nil {
		ln.Close()
		return nil, err
	}
	c := newClient(ln.Addr().String())
	bodies := make([][]byte, len(history))
	var wg sync.WaitGroup
	errs := make([]error, runtime.NumCPU())
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(history); i += len(errs) {
				b, err := json.Marshal(history[i])
				if err == nil {
					bodies[i], err = c.post("/v1/compile", b)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	err = errors.Join(d.stop(), errors.Join(errs...))
	return bodies, err
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// runServe is the serve-mix workload: an open loop of seeded Poisson
// arrivals against the daemon stack over loopback.
func runServe(ctx context.Context, cfg config) (o *outcome, err error) {
	rate := serveRate
	if cfg.rate > 0 {
		rate = cfg.rate
	}
	o = &outcome{rate: rate, limit: serveLimit}
	in, err := newServeInputs(cfg, rate)
	if err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.workDir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	template := filepath.Join(root, "template")
	historyRaw, err := populate(template, in.history)
	if err != nil {
		return nil, fmt.Errorf("earlier service life: %w", err)
	}

	var st *serveSetup
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			if err := st.d.stop(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		st, took, err = setupServe(template, filepath.Join(root, fmt.Sprintf("life%d", i)), in)
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, took)
	}
	defer func() {
		if serr := st.d.stop(); err == nil && serr != nil {
			err = serr
		}
	}()

	// Expected bodies and per-key figures of every compile the timed
	// phase can ask for that set-up already knows.
	wantBody := map[string][]byte{}
	figures := map[string]reportFigures{}
	for _, set := range []struct {
		reqs   []service.CompileRequest
		bodies [][]byte
	}{{in.history, historyRaw}, {in.hot, st.hotRaw}} {
		for i, cr := range set.reqs {
			key, err := service.RequestKey(cr)
			if err != nil {
				return nil, err
			}
			f, err := parseReport(set.bodies[i])
			if err != nil {
				return nil, err
			}
			wantBody[key], figures[key] = set.bodies[i], f
		}
	}
	for _, r := range in.reqs {
		switch r.class {
		case "hit":
			r.want = wantBody[r.keys[0]]
		case "batch":
			for _, k := range r.keys {
				b, err := compactJSON(wantBody[k])
				if err != nil {
					return nil, err
				}
				r.wantBatch = append(r.wantBatch, b)
			}
		}
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	before := st.d.svc.Metrics()
	out := make([]served, len(in.reqs))
	runtime.GC()
	start := time.Now()
	// The sampler reads the process CPU clock once per window. At the
	// fixed rate a window holds about 800 requests, so its tail is always
	// the p98.
	cpu0 := cpuTime()
	ticks, cpuAt := []time.Duration{0}, []time.Duration{cpu0}
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(serveWindow)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				ticks, cpuAt = append(ticks, time.Since(start)), append(cpuAt, cpuTime())
			}
		}
	}()
	var wg sync.WaitGroup
	for i, r := range in.reqs {
		due := start.Add(r.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := -1
			if i%2 == 1 {
				sp = tr.begin("http."+r.class, i, -1)
			}
			body, err := st.c.post(r.path, r.body)
			tr.end(sp)
			lat := time.Since(due)
			if err == nil {
				err = r.check(body)
			}
			if r.class == "hit" || r.class == "batch" {
				body = nil // checked; only misses are read again
			}
			out[i] = served{latency: lat, late: late, done: time.Since(start), body: body, err: err}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	close(stop)
	sampler.Wait()
	after := st.d.svc.Metrics()
	o.windows = make([]window, len(ticks)-1)
	for i := range o.windows {
		o.windows[i].wall = ticks[i+1] - ticks[i]
		o.windows[i].cpu = cpuAt[i+1] - cpuAt[i]
	}

	byClass := map[string][]time.Duration{}
	var lates []time.Duration
	goodBy := [2]int{}
	asked := map[string]bool{}
	for i, r := range in.reqs {
		s := out[i]
		o.attempted++
		lates = append(lates, s.late)
		if s.err != nil {
			o.fail(fmt.Errorf("%s request %d: %w", r.class, i, s.err))
			continue
		}
		o.latencies = append(o.latencies, s.latency)
		byClass[r.class] = append(byClass[r.class], s.latency)
		good := s.latency <= serveLimit
		if good {
			o.good++
			goodBy[i%2]++
		}
		if w := sort.Search(len(ticks), func(k int) bool { return ticks[k] > s.done }) - 1; w < len(o.windows) {
			o.windows[w].latencies = append(o.windows[w].latencies, s.latency)
			o.windows[w].ops++
			if good {
				o.windows[w].good++
			}
		}
		if r.class == "near" || r.class == "cold" {
			f, _ := parseReport(s.body)
			figures[r.keys[0]] = f
		}
		for _, k := range r.keys {
			asked[k] = true
		}
	}
	// A run shorter than a window is one window.
	full := o.windows[:0]
	for _, w := range o.windows {
		if w.ops > 0 {
			full = append(full, w)
		}
	}
	o.windows = full
	if len(o.windows) == 0 {
		o.windows = []window{{latencies: o.latencies, good: o.good, ops: len(o.latencies), wall: wall, cpu: cpuTime() - cpu0}}
	}
	for k := range asked {
		o.miiSum += figures[k].FinalMII
		o.recvSum += figures[k].Receives
	}

	// The seeded sample of misses, re-compiled in process after the
	// timed phase so the check does not load the server.
	self := map[string]time.Duration{}
	sampled := 0
	for i, r := range in.reqs {
		if !r.sample || out[i].err != nil {
			continue
		}
		vctx := ctx
		var rec *trace.Recorder
		if cfg.trace {
			rec = trace.New()
			vctx = trace.With(ctx, rec)
		}
		if err := verifyInProcess(vctx, r.compile, out[i].body, tr, i); err != nil {
			o.fail(fmt.Errorf("%s request %d: %w", r.class, i, err))
			continue
		}
		sampled++
		if rec != nil {
			if err := addSelfTimes(self, rec); err != nil {
				return nil, err
			}
		}
	}
	if failures := after.Failures - before.Failures; failures != 0 {
		o.fail(fmt.Errorf("service counted %d failures", failures))
	}

	lateP99 := quantile(sortedDurations(lates), 0.99)
	fmt.Fprintf(os.Stderr, "e2ebench serve-mix: %d requests at %g/s, generator late p99 %.3f ms, %d misses re-checked in process\n",
		len(in.reqs), rate, ms(lateP99), sampled)
	if cfg.trace {
		ls := newLayerSet()
		for _, class := range []string{"hit", "near", "cold", "batch"} {
			lat := sortedDurations(byClass[class])
			_, tail := tailOf(lat)
			ls.setSamples("http."+class+"_p50_ms", ms(median(lat)), len(lat))
			ls.setSamples("http."+class+"_tail_ms", ms(tail), len(lat))
		}
		ratio := func(a, b int64) float64 {
			if a+b == 0 {
				return 0
			}
			return float64(a) / float64(a+b)
		}
		hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
		memoHits, memoMisses := after.MemoHits-before.MemoHits, after.MemoMisses-before.MemoMisses
		ls.set("service.cache_hit_ratio", ratio(hits, misses))
		ls.set("service.queue_wait_p99_ms", after.QueueWaitP99Ms)
		ls.set("service.memo_hit_ratio", ratio(memoHits, memoMisses))
		ls.set("memo.hits", float64(memoHits))
		ls.set("memo.misses", float64(memoMisses))
		ls.set("service.batch_deduped", float64(after.BatchDeduped-before.BatchDeduped))
		ls.set("service.singleflight_hits", float64(after.SingleFlightHits-before.SingleFlightHits))
		ls.set("service.failures", float64(after.Failures-before.Failures))
		ls.set("service.store_hits", float64(after.StoreHits-before.StoreHits))
		ls.setSamples("store.warm_ms", ms(st.warm), 1)
		ls.setSamples("loadgen.late_p99_ms", ms(lateP99), len(lates))
		ls.setSpanMeans(tr, map[string]string{
			"lang.compile_ms": "lang.compile", "core.hca_ms": "core.hca",
			"modsched.run_ms": "modsched.run", "report.encode_ms": "report.encode",
		})
		setSelfTimes(ls, self, sampled)
		// Tracing here is client-side only: odd requests carry a span.
		ls.setSamples("trace.traced_throughput_per_s", float64(goodBy[1])/wall.Seconds(), goodBy[1])
		ls.setSamples("trace.untraced_throughput_per_s", float64(goodBy[0])/wall.Seconds(), goodBy[0])
		o.layers = ls
		if err := tr.write(cfg.workDir, fmt.Sprintf("spans-serve-mix-seed%d.jsonl", cfg.seed)); err != nil {
			return nil, err
		}
	}
	return o, nil
}
