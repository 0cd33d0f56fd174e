package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"mccls/internal/core"
)

// wireInputs is everything a wire_verify run is fed, in one comparable
// value.
func wireInputs(t *testing.T, seed int64) []byte {
	t.Helper()
	f, err := buildWireFixture(seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, id := range f.ids {
		fmt.Fprintln(&b, id)
	}
	for _, pk := range f.pkBytes {
		b.Write(pk)
	}
	for i := range f.payload {
		fmt.Fprintf(&b, "%d %v %x %x\n", f.signer[i], f.forged[i], f.signed[i], f.payload[i])
	}
	sig, err := core.Sign(f.params, f.keys[f.signer[0]], f.signed[0], stream(seed, "wire/sign"))
	if err != nil {
		t.Fatal(err)
	}
	b.Write(sig.Marshal())
	return b.Bytes()
}

func kgcInputs(seed int64) []byte {
	var b bytes.Buffer
	for i := 0; i < 64; i++ {
		fmt.Fprintln(&b, kgcID(seed, "cold", i), kgcID(seed, "warmup", i))
	}
	fmt.Fprintln(&b, rand.New(stream(seed, "kgc/warm")).Perm(64))
	return b.Bytes()
}

func manetInputs(t *testing.T, seed int64) []byte {
	t.Helper()
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(stream(seed, "manet/trials"))
	var b bytes.Buffer
	for _, k := range trialKinds {
		for _, g := range drawTrials(golden[k.name], k.draw, r) {
			fmt.Fprintf(&b, "%s %d\n", k.name, g.Seed)
		}
	}
	return b.Bytes()
}

func TestSeedDeterminesInputs(t *testing.T) {
	for name, inputs := range map[string]func(int64) []byte{
		"wire_verify": func(s int64) []byte { return wireInputs(t, s) },
		"kgc_enroll":  kgcInputs,
		"manet_trial": func(s int64) []byte { return manetInputs(t, s) },
	} {
		a, b, c := inputs(11), inputs(11), inputs(12)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 11 gave different inputs on two builds", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 11 and 12 gave identical inputs", name)
		}
	}
}

func TestWireFixtureShape(t *testing.T) {
	f, err := buildWireFixture(3, 20) // 320 messages: two forgeries
	if err != nil {
		t.Fatal(err)
	}
	forged := 0
	for i, fg := range f.forged {
		if fg {
			forged++
			if bytes.Equal(f.payload[i], f.signed[i]) {
				t.Errorf("forged message %d carries the payload its signature covers", i)
			}
		} else if !bytes.Equal(f.payload[i], f.signed[i]) {
			t.Errorf("valid message %d: payload differs from the signed bytes", i)
		}
	}
	if want := (len(f.payload) + wireForgeryEvery - 1) / wireForgeryEvery; forged != want {
		t.Errorf("%d forgeries in %d messages, want %d", forged, len(f.payload), want)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "enroll", Key: "a", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 50) once.
		{ID: 2, Name: "share", Key: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Name: "share", Key: "a", Start: 20 * ms, End: 50 * ms},
		// A child running past its parent counts only inside it: [90, 100).
		{ID: 4, Name: "share", Key: "a", Start: 90 * ms, End: 120 * ms},
		// Linked by identifier, not key.
		{ID: 5, Parent: 1, Name: "decode", Key: "z", Start: 60 * ms, End: 70 * ms},
		// Another enrollment's share is not a child of this one.
		{ID: 6, Name: "share", Key: "b", Start: 0, End: 100 * ms},
		{ID: 7, Name: "enroll", Key: "b", Start: 200 * ms, End: 210 * ms},
	}
	kids := Children(spans, "enroll")
	if got := len(kids[1]); got != 4 {
		t.Fatalf("enrollment a has %d children, want 4", got)
	}
	if got, want := SelfTime(spans[0], kids[1]), 40*ms; got != want {
		t.Errorf("self time %v, want %v", got, want)
	}
	if got, want := SelfTime(spans[6], kids[7]), 10*ms; got != want {
		t.Errorf("self time of b %v, want %v (its share lies outside it)", got, want)
	}
	if got := Covered(0, 10*ms, nil); got != 0 {
		t.Errorf("no children cover %v", got)
	}
}

func TestGatesRejectWrongOutcomes(t *testing.T) {
	wrapped := fmt.Errorf("wrapped: %w", core.ErrVerifyFailed)
	for _, c := range []struct {
		forged bool
		err    error
		want   bool
	}{
		{false, nil, true},
		{true, wrapped, true},
		{true, nil, false},                      // forged message accepted
		{false, core.ErrVerifyFailed, false},    // valid message rejected
		{true, core.ErrInvalidSignature, false}, // forgery must fail the equation, not decoding
	} {
		if got := verifyOutcomeOK(c.forged, c.err); got != c.want {
			t.Errorf("verifyOutcomeOK(%v, %v) = %v, want %v", c.forged, c.err, got, c.want)
		}
	}
	if offendersOK([]int{3, 17}, []int{3}) || offendersOK([]int{3}, []int{3, 4}) || !offendersOK(nil, nil) {
		t.Error("offendersOK must accept exactly the forged indices")
	}
	if keyOK(nil, nil) || keyOK([]byte{1}, []byte{2}) || !keyOK([]byte{1}, []byte{1}) {
		t.Error("keyOK must accept exactly a byte-equal reply")
	}

	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	g := golden["paper"][0]
	g.Stats.AuthRejected++
	rep := newReport()
	if _, err := runTrial("paper", g, nil, rep); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 1 || rep.correct() {
		t.Error("a trial whose statistics differ from the record must fail the run")
	}

	for wl, p := range map[string]plane{
		"wire_verify": {httpRequests: 1},
		"kgc_enroll":  {simEvents: 1},
		"manet_trial": {pairings: 1},
	} {
		rep := newReport()
		rep.outcome(true, "")
		rep.checkIsolation(wl, p)
		if rep.correct() {
			t.Errorf("%s: work in another plane (%+v) passed the isolation gate", wl, p)
		}
	}
}

// smoke runs a workload briefly and checks every outcome was right and the
// run stayed in its plane.
func smoke(t *testing.T, wl string, run func(*report) error) *report {
	t.Helper()
	rep := newReport()
	before := readPlane()
	if err := run(rep); err != nil {
		t.Fatal(err)
	}
	rep.checkIsolation(wl, readPlane().sub(before))
	if !rep.correct() || rep.okShare() != 1 {
		t.Fatalf("%s: ok_share %v, gates %v", wl, rep.okShare(), rep.gates)
	}
	return rep
}

func TestWireSmoke(t *testing.T) {
	o := options{workload: "wire_verify", seed: 5, seconds: 0.01}
	f, err := buildWireFixture(o.seed, 20) // 320 messages, 10 windows, 2 forgeries
	if err != nil {
		t.Fatal(err)
	}
	smoke(t, o.workload, func(rep *report) error { return measureWire(o, f, nil, rep) })

	// The traced path: every outcome right and the layers present. Its
	// reconciliation gates need full-length phases, so they are not
	// asserted here.
	rep := newReport()
	if err := measureWire(o, f, NewTracer(), rep); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("traced run: %d wrong outcomes: %v", rep.failed, rep.gates)
	}
	for _, name := range []string{"core.decode_sig_share", "core.verify_residual_share", "bn254.miller_loop_share",
		"batch.decode_share", "recon.verify_gap_share", "cpu.op1.bn254", "trace.overhead_share.op1_ms"} {
		if v, ok := rep.layers[name]; !ok || math.IsNaN(v.Value) {
			t.Errorf("traced run: layer %s missing or NaN", name)
		}
	}
	if got := rep.layers["batch.offenders"].Value; got != 2 {
		t.Errorf("batch offenders %v, want the 2 forgeries", got)
	}
}

func TestKGCSmoke(t *testing.T) {
	installHTTPCounter()
	o := options{workload: "kgc_enroll", seed: 5, seconds: 0.01}
	smoke(t, o.workload, func(rep *report) error {
		d, err := startKGC(o.seed, nil)
		if err != nil {
			return err
		}
		defer d.close()
		return measureKGC(o, d, nil, rep)
	})
}

func TestManetSmoke(t *testing.T) {
	o := options{workload: "manet_trial", seed: 5, seconds: 0.01}
	smoke(t, o.workload, func(rep *report) error { return runManet(o, nil, rep) })
}

//go:noinline
func spin(d time.Duration) (sum [32]byte) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		sum = sha256.Sum256(sum[:])
	}
	return sum
}

func TestSelfTimeByFunction(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	self, err := selfTimeByFunction(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range self {
		total += v
	}
	if total < int64(100*time.Millisecond) {
		t.Fatalf("profile holds %v of CPU time, want most of the 300ms spin", time.Duration(total))
	}
	shares := cpuShares(self)
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if _, err := selfTimeByFunction([]byte("not a profile")); err == nil {
		t.Error("garbage decoded as a profile")
	}
	if funcPackage("mccls/internal/sim.(*Simulator).Run") != "mccls/internal/sim" ||
		funcPackage("runtime.mallocgc") != "runtime" || funcPackage("container/heap.Push") != "container/heap" {
		t.Error("funcPackage misreads a symbol")
	}
}

func TestPhaseBest(t *testing.T) {
	ms := time.Millisecond
	p := newPhase(2)
	// Two blocks: windows (1, 3) and (2, 2) in the first, (5, 5) in the
	// second; the lone trailing op of the first block makes no window.
	p.add([]op{{start: 0, end: 1 * ms, items: 1}, {start: 1 * ms, end: 4 * ms, items: 1},
		{start: 10 * ms, end: 12 * ms, items: 1}, {start: 12 * ms, end: 14 * ms, items: 1},
		{start: 20 * ms, end: 21 * ms, items: 1}})
	p.add([]op{{start: 30 * ms, end: 35 * ms, items: 4}, {start: 35 * ms, end: 40 * ms, items: 4}})
	gotMs, gotPerS := p.best()
	if gotMs != 1 {
		t.Errorf("best window median %v ms, want 1 (the lower of the first window's pair, by nearest rank)", gotMs)
	}
	if math.Abs(gotPerS-8/0.010) > 1e-9 {
		t.Errorf("best window throughput %v/s, want %v (8 items in 10 ms)", gotPerS, 8/0.010)
	}

	// Per input: each input's fastest repeat, median over inputs.
	q := newPhase(0)
	q.add([]op{{key: 1, start: 0, end: 10 * ms, items: 1}, {key: 2, start: 10 * ms, end: 30 * ms, items: 1}})
	q.add([]op{{key: 1, start: 40 * ms, end: 48 * ms, items: 1}, {key: 2, start: 50 * ms, end: 80 * ms, items: 1}})
	gotMs, gotPerS = q.best()
	if gotMs != 14 {
		t.Errorf("per-input mean of fastest repeats %v ms, want 14 (of 8 and 20)", gotMs)
	}
	if math.Abs(gotPerS-2/0.028) > 1e-9 {
		t.Errorf("per-input throughput %v/s, want %v", gotPerS, 2/0.028)
	}
	if m, _ := newPhase(4).best(); !math.IsNaN(m) {
		t.Errorf("an empty phase gave %v", m)
	}
}

func TestMetricsMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind   string
		listed []struct{ Name, Unit string }
		specs  []metricSpec
	}{
		{"end_to_end", manifest.EndToEnd, endToEndMetrics},
		{"per_layer", manifest.PerLayer, layerMetrics},
	} {
		want := map[string]string{}
		for _, m := range c.listed {
			want[m.Name] = m.Unit
		}
		if len(want) != len(c.specs) {
			t.Errorf("%s: manifest lists %d metrics, the benchmark prints %d", c.kind, len(want), len(c.specs))
		}
		for _, s := range c.specs {
			if u, ok := want[s.name]; !ok || u != s.unit {
				t.Errorf("%s: %s (%s) printed, manifest has %q", c.kind, s.name, s.unit, u)
			}
		}
	}
	var names []string
	for _, w := range manifest.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("manifest workloads %v, benchmark workloads %v", names, ours)
	}
}

func TestCollect(t *testing.T) {
	specs := []metricSpec{{"a", "ms", ""}, {"b", "count", "x"}, {"c", "share", "y"}}
	got, err := collect(specs, map[string]metric{"a": {1, "ms"}, "b": {2, "count"}}, "x")
	if err != nil {
		t.Fatal(err)
	}
	if got["c"] != (metric{0, "share"}) || got["b"].Value != 2 || len(got) != 3 {
		t.Errorf("collect = %v: another workload's layer must read 0, its own as measured", got)
	}
	for name, in := range map[string]map[string]metric{
		"own metric missing":  {"a": {1, "ms"}},
		"unit differs":        {"a": {1, "s"}, "b": {2, "count"}},
		"metric not in specs": {"a": {1, "ms"}, "b": {2, "count"}, "d": {3, "count"}},
		"value not a number":  {"a": {math.NaN(), "ms"}, "b": {2, "count"}},
	} {
		if _, err := collect(specs, in, "x"); err == nil {
			t.Errorf("%s: collect accepted %v", name, in)
		}
	}
}
