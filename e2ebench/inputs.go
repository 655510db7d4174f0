package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/ddg"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/machine"
)

// source is one kernel the benchmark feeds the compiler: a named kernel
// from internal/kernels, a generated internal/lang text, or a
// kernels.Synthetic configuration. The program only ever sees the DDG
// (or request) built from it.
type source struct {
	kind  string // "kernel", "lang" or "synth"
	name  string
	text  string              // lang source
	synth kernels.SynthConfig // synthetic DDG
}

// build constructs the source's DDG through the public front ends.
func (s source) build() (*ddg.DDG, error) {
	switch s.kind {
	case "kernel":
		k, err := kernels.ByName(s.name)
		if err != nil {
			return nil, err
		}
		return k.Build(), nil
	case "lang":
		return lang.Compile(s.text)
	default:
		return kernels.Synthetic(s.synth), nil
	}
}

// tableKernels are the paper's four Table-1 kernels plus the two extra
// multimedia kernels.
var tableKernels = []string{"fir2dim", "idcthor", "mpeg2inter", "h264deblocking", "fft8", "sad16"}

// fabric is one target machine of the corpus.
type fabric struct {
	name  string
	build func() *machine.Config
}

// corpusFabrics are the three machines every compile-corpus source runs
// on: the paper's best DSPFabric, a narrow one, and an RCP ring.
var corpusFabrics = []fabric{
	{"dspfabric-8-8-8", func() *machine.Config { return machine.DSPFabric64(8, 8, 8) }},
	{"dspfabric-4-4-4", func() *machine.Config { return machine.DSPFabric64(4, 4, 4) }},
	{"rcp-8-2-2", func() *machine.Config { return machine.RCP(8, 2, 2) }},
}

// langSource generates a seeded internal/lang kernel: a taps-wide
// filter over a wrapping line buffer. Odd variants add a loop-carried
// accumulator; variants 2 and 3 (mod 4) write a second output stream.
// The seed picks the coefficients and the buffer length.
func langSource(rng *rand.Rand, name string, taps, variant int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel %s\n", name)
	fmt.Fprintf(&b, "walk p 1 %d\n", 64<<rng.Intn(2))
	fmt.Fprintf(&b, "iv out %d 1\n", 8192)
	terms := make([]string, taps)
	for i := 0; i < taps; i++ {
		fmt.Fprintf(&b, "x%d = load(p + %d)\n", i, i)
		terms[i] = fmt.Sprintf("x%d*%d", i, 1+rng.Intn(7))
	}
	fmt.Fprintf(&b, "s = %s\n", strings.Join(terms, " + "))
	val := "s"
	if variant%2 == 1 {
		fmt.Fprintf(&b, "acc = prev(acc, 1) + s\n")
		fmt.Fprintf(&b, "t = acc - prev(s, %d)\n", 1+rng.Intn(3))
		val = "t"
	}
	fmt.Fprintf(&b, "y = clip((%s + %d) >> %d, 0, 255)\n", val, 1<<3, 4)
	b.WriteString("store(out, y)\n")
	if variant%4 >= 2 {
		fmt.Fprintf(&b, "z = max(x0, x%d) - min(x1, x%d)\n", taps-1, taps-2)
		b.WriteString("store(out + 4096, abs(z))\n")
	}
	return b.String()
}

// synthSource returns a seeded synthetic DDG of exactly ops instructions
// with a recurrence of the given latency (0 = none).
func synthSource(rng *rand.Rand, ops, recLat int) source {
	cfg := kernels.SynthConfig{Ops: ops, Seed: rng.Int63n(1 << 40), RecLatency: recLat}
	return source{kind: "synth", name: fmt.Sprintf("synth-%d-%d", ops, cfg.Seed), synth: cfg}
}

// simIterations returns how many loop iterations the simulation check of
// a source runs. kernels.Synthetic's store tail writes walker+2^20+i for
// store i, so consecutive iterations write the same addresses with no
// memory dependence in the DDG; a modulo schedule may legally reorder
// those writes, and the sequential reference then disagrees on the final
// value. Synthetic DDGs are therefore checked over one iteration, where
// no two stores alias; every other source runs sixteen.
func (s source) simIterations() int {
	if s.kind == "synth" {
		return 1
	}
	return 16
}

// memoryImage returns an initial memory image for d: a seeded byte value
// at every address the sequential reference reads before writing it
// during iters iterations. Simulation and reference both start from a
// copy of it.
func memoryImage(d *ddg.DDG, iters int, seed int64) (ddg.MapMemory, error) {
	pm := &probeMemory{init: ddg.MapMemory{}, written: ddg.MapMemory{}, seed: uint64(seed)}
	if _, err := d.Interpret(pm, iters); err != nil {
		return nil, err
	}
	return pm.init, nil
}

// probeMemory records which addresses are read before being written,
// answering each with a seeded value.
type probeMemory struct {
	init, written ddg.MapMemory
	seed          uint64
}

func (m *probeMemory) Load(addr int64) int64 {
	if v, ok := m.written[addr]; ok {
		return v
	}
	if v, ok := m.init[addr]; ok {
		return v
	}
	v := int64(mix64(uint64(addr)^m.seed) & 0xff)
	m.init[addr] = v
	return v
}

func (m *probeMemory) Store(addr, val int64) { m.written[addr] = val }

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newRand returns the workload's seeded generator; stream separates the
// independent draws one workload makes.
func newRand(seed int64, stream string) *rand.Rand {
	h := uint64(seed)
	for _, c := range stream {
		h = mix64(h ^ uint64(c))
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}
