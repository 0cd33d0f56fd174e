package main

import (
	"math"
	"sort"
	"time"
)

// The host the benchmark runs on is shared: other tenants' bursts of load
// slow every operation in a stretch of a few hundred milliseconds to
// seconds, by up to a half, and how much of a run they cover differs from
// run to run by a third. Contention only ever slows an operation. So an
// end-to-end time is not the median over the whole run, which measures how
// busy the neighbours were, but the median within the run's fastest
// stretch: short windows of consecutive operations, of which the run keeps
// the best. Every run does the same work, so every run has the same number
// of windows to choose from.

// op is one timed operation of an end-to-end phase.
type op struct {
	key        int64         // the input it ran on, where inputs differ in cost (a trial's seed)
	start, end time.Duration // since the phase's epoch
	items      int           // units of work completed (signatures in a batch window)
}

func (o op) ms() float64 { return durMs(o.end - o.start) }

// phase collects one end-to-end phase's operations, block by block: a
// block is a stretch of back-to-back operations (one pass, one enrollment
// block), and no window spans two blocks.
type phase struct {
	epoch time.Time
	// window is the number of consecutive operations per window; 0 means
	// the operations run different inputs of different cost, so each input
	// is its own window across its repeats.
	window int
	blocks [][]op
}

func newPhase(window int) *phase { return &phase{epoch: time.Now(), window: window} }

// since is the phase clock.
func (p *phase) since(t time.Time) time.Duration { return t.Sub(p.epoch) }

// add records one block of operations.
func (p *phase) add(block []op) {
	if len(block) > 0 {
		p.blocks = append(p.blocks, block)
	}
}

// best returns the phase's time per operation (ms) and operations (items)
// per second in its fastest stretch.
//
// With a window, ms is the lowest median latency of any window of
// p.window consecutive operations (by start time), and perS the highest
// items per second of any window, over the window's wall time from its
// first start to its last end. Without one, ms is the mean over inputs of
// each input's fastest repeat, and perS the items of one repeat of every
// input over the sum of their fastest times.
func (p *phase) best() (ms, perS float64) {
	if p.window == 0 {
		return p.bestPerInput()
	}
	ms = math.Inf(1)
	for _, b := range p.blocks {
		b = append([]op(nil), b...)
		sort.Slice(b, func(i, j int) bool { return b[i].start < b[j].start })
		for lo := 0; lo+p.window <= len(b); lo += p.window {
			w := b[lo : lo+p.window]
			lat := make([]float64, len(w))
			first, last, items := w[0].start, w[0].end, 0
			for i, o := range w {
				lat[i] = o.ms()
				first, last = min(first, o.start), max(last, o.end)
				items += o.items
			}
			ms = min(ms, median(lat))
			perS = max(perS, float64(items)/(last-first).Seconds())
		}
	}
	if math.IsInf(ms, 1) {
		return math.NaN(), math.NaN()
	}
	return ms, perS
}

func (p *phase) bestPerInput() (ms, perS float64) {
	fastest := map[int64]op{}
	for _, b := range p.blocks {
		for _, o := range b {
			if f, ok := fastest[o.key]; !ok || o.ms() < f.ms() {
				fastest[o.key] = o
			}
		}
	}
	if len(fastest) == 0 {
		return math.NaN(), math.NaN()
	}
	var sum time.Duration
	items := 0
	for _, o := range fastest {
		sum += o.end - o.start
		items += o.items
	}
	return durMs(sum) / float64(len(fastest)), float64(items) / sum.Seconds()
}

// recorder holds a run's two end-to-end phases, op1 and op2, apart for
// untraced and traced rounds. A traced run alternates the two kinds of
// round, so the tracing overhead is measured on the same host minutes as
// the traced values.
type recorder struct {
	ph [2][2]*phase // [traced][op1, op2]
}

func newRecorder(window1, window2 int) *recorder {
	r := &recorder{}
	for t := range r.ph {
		r.ph[t] = [2]*phase{newPhase(window1), newPhase(window2)}
	}
	return r
}

// op returns phase k (1 or 2) of the kind of round the tracer marks.
func (r *recorder) op(tr *Tracer, k int) *phase {
	t := 0
	if tr != nil {
		t = 1
	}
	return r.ph[t][k-1]
}

// report sets op1_ms, op1_per_s, op2_ms and op2_per_s: from the untraced
// rounds, or in a traced run from the traced rounds, with the tracing
// overhead (traced minus untraced time, over untraced) as a layer metric.
func (r *recorder) report(rep *report, traced bool) {
	for k, name := range []string{"op1", "op2"} {
		ms, perS := r.ph[0][k].best()
		if traced {
			tms, tperS := r.ph[1][k].best()
			rep.layer("trace.overhead_share."+name+"_ms", (tms-ms)/ms, "share")
			ms, perS = tms, tperS
		}
		rep.e2e(name+"_ms", ms, "ms")
		rep.e2e(name+"_per_s", perS, "1/s")
	}
}
