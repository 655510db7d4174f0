package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// outcome is what a workload measured; endToEnd and the workload's own
// per-layer map turn it into metrics.
type outcome struct {
	setups []time.Duration
	// latencies holds one sample per completed operation.
	latencies []time.Duration
	// good counts completed units of work (operations, or grid points on
	// explore-sweep) that passed their checks and, on the open loop,
	// finished within the latency limit.
	good              int
	attempted, failed int
	failures          []string
	// notes are remarks on the run that are not failures, such as a
	// program defect the workload worked around.
	notes []string
	// miiSum and recvSum sum final MII and inserted receives over the
	// distinct compiles the workload asked for.
	miiSum, recvSum int
	// rate and limit describe an open loop (0 for closed loops).
	rate  float64
	limit time.Duration
	// layers is the per-layer metric set of a traced run.
	layers map[string]metric
	// windows slice the timed phase into equal units of work (two corpus
	// passes, a sweep cycle, two seconds of the open loop). The p50,
	// tail, throughput and CPU figures are medians over windows, so a
	// host disturbance that hits a few windows does not move them.
	windows []window
}

// window is one slice of the timed phase.
type window struct {
	latencies []time.Duration
	good, ops int
	wall, cpu time.Duration
}

// medianOver returns the median of f over the windows.
func medianOver(ws []window, f func(w window) float64) float64 {
	v := make([]float64, 0, len(ws))
	for _, w := range ws {
		v = append(v, f(w))
	}
	sort.Float64s(v)
	if len(v) == 0 {
		return 0
	}
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// fail records one failed operation; the first few reasons are kept.
func (o *outcome) fail(err error) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, err.Error())
	}
}

// endToEnd derives the end-to-end metric set. error_ratio is not in it:
// it is 0 on every accepted run, so it travels as attempted/failed.
func endToEnd(o *outcome) map[string]metric {
	lat := sortedDurations(o.latencies)
	ws := o.windows
	p, tail, tailWs := windowTail(ws)
	if tailWs == 0 {
		p, tail = tailOf(lat)
	}
	p50 := medianOver(ws, func(w window) float64 { return ms(median(sortedDurations(w.latencies))) })
	throughput := medianOver(ws, func(w window) float64 { return float64(w.good) / w.wall.Seconds() })
	cpuPerOp := medianOver(ws, func(w window) float64 { return ms(w.cpu) / float64(max(w.ops, 1)) })
	return map[string]metric{
		"setup_s":          {Value: median(sortedDurations(o.setups)).Seconds(), Unit: "s", Samples: len(o.setups)},
		"latency_p50_ms":   {Value: p50, Unit: "ms", Samples: len(lat), Windows: len(ws), Percentile: 50},
		"latency_tail_ms":  {Value: ms(tail), Unit: "ms", Samples: len(lat), Windows: tailWs, Percentile: p},
		"throughput_per_s": {Value: throughput, Unit: "1/s", Samples: o.good, Windows: len(ws)},
		"cpu_ms_per_op":    {Value: cpuPerOp, Unit: "ms", Samples: len(lat), Windows: len(ws)},
		"peak_rss_mb":      {Value: peakRSSMB(), Unit: "MB"},
		"mii_sum":          {Value: float64(o.miiSum), Unit: "cycles"},
		"receives_sum":     {Value: float64(o.recvSum), Unit: "count"},
	}
}

// opResult is what one closed-loop operation reports.
type opResult struct {
	units   int           // work completed: 1 operation, or a sweep's grid points
	latency time.Duration // the operation itself
	busy    time.Duration // the operation plus its output checks
	err     error
}

// loopSplit is a traced closed loop's work and busy time, split between
// its traced and untraced passes.
type loopSplit struct {
	tracedUnits, untracedUnits int
	tracedBusy, untracedBusy   time.Duration
}

// closedLoop runs one client's closed loop for cfg.seconds: passes over
// the operation indexes order returns, each pass one window. A traced run
// alternates untraced and traced passes, so both see the same inputs and
// the same host conditions. Time do spends beyond an operation's busy
// time (trace analysis) is not part of the workload and extends the
// budget. A pass cut short by the budget is left out of the windows
// unless it is the only one.
func closedLoop(cfg config, o *outcome, order func() []int, do func(idx, op int, traced bool) opResult) loopSplit {
	var split loopSplit
	runtime.GC()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	op := 0
	for pass := 0; time.Since(start) < budget; pass++ {
		traced := cfg.trace && pass%2 == 1
		var w window
		var outside time.Duration
		passStart, cpu0 := time.Now(), cpuTime()
		complete := true
		for _, idx := range order() {
			if time.Since(start) >= budget {
				complete = false
				break
			}
			t0 := time.Now()
			r := do(idx, op, traced)
			op++
			o.attempted++
			extra := time.Since(t0) - r.busy
			budget += extra
			outside += extra
			if r.err != nil {
				o.fail(r.err)
				continue
			}
			o.good += r.units
			o.latencies = append(o.latencies, r.latency)
			w.latencies = append(w.latencies, r.latency)
			w.good += r.units
			w.ops++
			if traced {
				split.tracedUnits += r.units
				split.tracedBusy += r.busy
			} else {
				split.untracedUnits += r.units
				split.untracedBusy += r.busy
			}
		}
		w.wall = time.Since(passStart) - outside
		w.cpu = cpuTime() - cpu0
		if w.ops > 0 && (complete || len(o.windows) == 0) {
			o.windows = append(o.windows, w)
		}
	}
	return split
}

// tailLadder lists the percentiles a tail is reported at; the highest one
// with at least ten samples beyond it is used. Whole percentiles from 99
// down to 75 keep the step small when the sample count moves the choice.
var tailLadder = func() []float64 {
	l := []float64{99.9, 99.5}
	for p := 99; p >= 75; p-- {
		l = append(l, float64(p))
	}
	return append(l, 50)
}()

// tailPercentile returns the highest ladder percentile with at least ten
// of n samples beyond it (50 when n is too small for any other).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p) >= 1000-1e-9 {
			return p
		}
	}
	return 50
}

// tailOf returns the tail percentile of the sorted samples and its value.
func tailOf(sorted []time.Duration) (float64, time.Duration) {
	p := tailPercentile(len(sorted))
	return p, quantile(sorted, p/100)
}

// windowTail returns the median over windows of each window's tail, at
// the highest ladder percentile with at least ten samples beyond it in
// every window, and the number of windows. It returns no windows when
// they are too small for any percentile above the median; the tail is
// then taken over all samples.
func windowTail(ws []window) (float64, time.Duration, int) {
	if len(ws) == 0 {
		return 0, 0, 0
	}
	smallest := len(ws[0].latencies)
	for _, w := range ws {
		smallest = min(smallest, len(w.latencies))
	}
	p := tailPercentile(smallest)
	if p <= 50 {
		return 0, 0, 0
	}
	v := medianOver(ws, func(w window) float64 { return float64(quantile(sortedDurations(w.latencies), p/100)) })
	return p, time.Duration(v), len(ws)
}

func sortedDurations(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile returns the q-quantile of sorted samples by linear
// interpolation between closest ranks (0 for no samples).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i] + time.Duration(frac*float64(sorted[i+1]-sorted[i]))
}

func median(sorted []time.Duration) time.Duration { return quantile(sorted, 0.5) }

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB
// (getrusage reports it in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// tracer records a span around each public call the benchmark makes in
// a traced run: name, start, end, parent span and operation id. Spans
// stay in memory and are written out once, when the run ends. A nil
// tracer records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the parent span, -1 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// call runs fn inside a span named name.
func (t *tracer) call(name string, op, parent int, fn func()) {
	i := t.begin(name, op, parent)
	fn()
	t.end(i)
}

// durations returns the durations of every closed span named name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// meanMs returns the mean duration of the spans named name, in ms, and
// how many there are.
func (t *tracer) meanMs(name string) (float64, int) {
	d := t.durations(name)
	if len(d) == 0 {
		return 0, 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return ms(sum) / float64(len(d)), len(d)
}

// write stores the spans as JSON lines in dir.
func (t *tracer) write(dir, name string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	t.mu.Unlock()
	return os.WriteFile(filepath.Join(dir, name), []byte(sb.String()), 0o644)
}

// selfPhase maps a program span name (the spans the compiler already
// emits into a trace.Recorder) to the per-layer self-time metric it
// feeds. Subproblem spans are core.HCA's own bookkeeping.
func selfPhase(name string) string {
	switch {
	case name == "partition.seed":
		return "partition.seed_self_ms"
	case name == "see.solve":
		return "see.solve_self_ms"
	case name == "mapper.map":
		return "mapper.map_self_ms"
	case name == "postprocess":
		return "postprocess_self_ms"
	case name == "coherency":
		return "coherency_self_ms"
	case name == "hca" || name == "hca.pure" || name == "hca.seeded" || strings.HasPrefix(name, "subproblem "):
		return "hca_self_ms"
	}
	return ""
}

var selfPhaseMetrics = []string{
	"partition.seed_self_ms", "see.solve_self_ms", "mapper.map_self_ms",
	"postprocess_self_ms", "coherency_self_ms", "hca_self_ms",
}

// selfTimes reads a recorder's Chrome trace export and returns the self
// time of each phase in selfPhase: a span's duration minus the part of
// it its child spans cover. The export names each span's parent; the
// parent is the innermost span of that name enclosing the child.
func selfTimes(chrome []byte) (map[string]time.Duration, error) {
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   int64          `json:"ts"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &f); err != nil {
		return nil, fmt.Errorf("chrome trace: %v", err)
	}
	type cspan struct {
		name, parent string
		start, end   int64
	}
	var spans []cspan
	open := map[int][]int{} // tid -> stack of span indexes
	for _, e := range f.TraceEvents {
		switch e.Ph {
		case "B":
			parent, _ := e.Args["parent"].(string)
			spans = append(spans, cspan{name: e.Name, parent: parent, start: e.TS, end: -1})
			open[e.TID] = append(open[e.TID], len(spans)-1)
		case "E":
			st := open[e.TID]
			if len(st) == 0 {
				return nil, fmt.Errorf("chrome trace: unmatched end of %q", e.Name)
			}
			spans[st[len(st)-1]].end = e.TS
			open[e.TID] = st[:len(st)-1]
		}
	}
	byName := map[string][]int{}
	for i, s := range spans {
		byName[s.name] = append(byName[s.name], i)
	}
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.parent == "" {
			continue
		}
		best := -1
		for _, j := range byName[s.parent] {
			p := spans[j]
			if p.start <= s.start && s.end <= p.end && (best < 0 || p.start >= spans[best].start) {
				best = j
			}
		}
		if best >= 0 {
			children[best] = append(children[best], [2]int64{s.start, s.end})
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		phase := selfPhase(s.name)
		if phase == "" {
			continue
		}
		self := (s.end - s.start) - covered(children[i])
		out[phase] += time.Duration(self) * time.Microsecond
	}
	return out, nil
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	started := false
	for _, x := range iv {
		if !started || x[0] > curE {
			if started {
				total += curE - curS
			}
			curS, curE, started = x[0], x[1], true
			continue
		}
		if x[1] > curE {
			curE = x[1]
		}
	}
	if started {
		total += curE - curS
	}
	return total
}
