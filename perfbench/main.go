// Command perfbench is the repository benchmark: three workloads, one per
// plane of the system, each measured end to end (untraced runs) and layer
// by layer (a traced run). See README.md for why each workload exists and
// which layer metric should move which end-to-end metric.
//
//	perfbench --workload wire_verify --seed 1 --seconds 30 --trace 0
//	perfbench --record-golden golden_trials.json
//
// The last line of standard output is the result record
// {"correct", "attempted", "failed", "metrics"}; the lines before it carry
// the machine record and the workload's non-metric outputs. A failed
// correctness gate prints the record with "correct": false and exits 1.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"mccls/internal/bn254"
	"mccls/internal/bn254/fp"
)

// processStart approximates process start: package initialisation runs
// before main, a millisecond or so after exec.
var processStart = time.Now()

// setupRepeats is how many times each workload builds its set-up state; the
// reported setup_s is the median, so one slow build does not move it.
const setupRepeats = 5

// buildDir holds everything a run leaves behind (trace spans, profiles);
// run.sh builds the binary there too. It is relative to the checkout root.
const buildDir = ".bench_build"

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// workload is one plane's benchmark. run measures for o.seconds and fills
// rep; it returns an error only when the run could not be carried out.
type workload struct {
	name string
	run  func(o options, tr *Tracer, rep *report) error
}

var workloads = []workload{
	{wireWL, runWire},
	{kgcWL, runKGC},
	{manetWL, runManet},
}

func main() {
	code, err := mainErr(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func mainErr(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	var golden string
	fs.StringVar(&o.workload, "workload", "", "workload to run: wire_verify, kgc_enroll or manet_trial")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; every input is derived from it")
	fs.Float64Var(&o.seconds, "seconds", 30, "measuring time: sets how many rounds of nominal length the run makes")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.StringVar(&golden, "record-golden", "", "re-record the trial statistics pool to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if golden != "" {
		return 0, recordGolden(golden)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if o.seconds <= 0 {
		return 2, fmt.Errorf("--seconds must be positive")
	}
	o.trace = traceFlag == 1
	var wl *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return 2, fmt.Errorf("unknown workload %q", o.workload)
	}
	installHTTPCounter()

	rep := newReport()
	hostStart := sha256MBPerSec()
	var tr *Tracer
	if o.trace {
		tr = NewTracer()
	}
	startOps := readPlane()
	if err := wl.run(o, tr, rep); err != nil {
		return 1, err
	}
	used := readPlane().sub(startOps)
	rep.checkIsolation(o.workload, used)
	rep.layer("plane.pairings", float64(used.pairings), "count")
	rep.layer("plane.http_requests", float64(used.httpRequests), "count")
	rep.layer("plane.sim_events", float64(used.simEvents), "count")
	hostEnd := sha256MBPerSec()

	rep.layer("host.sha256_mb_per_s", (hostStart+hostEnd)/2, "MB/s")
	rep.layer("host.sha256_end_over_start", hostEnd/hostStart, "ratio")
	rep.e2e("peak_rss_mb", peakRSSMB(), "MB")
	rep.e2e("ok_share", rep.okShare(), "share")
	if o.trace {
		if err := tr.WriteFile(filepath.Join(buildDir, "trace", fmt.Sprintf("%s-%d.jsonl", o.workload, o.seed))); err != nil {
			return 1, err
		}
	}
	return rep.print(stdout, o, hostStart, hostEnd)
}

// metric is one named value of the result record.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the record printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's outcomes, metrics and gate failures.
type report struct {
	attempted, failed int64
	gates             []string // failed correctness gates, for stderr
	endToEnd          map[string]metric
	layers            map[string]metric
	outputs           map[string]any // non-metric outputs, printed before the result
}

func newReport() *report {
	return &report{endToEnd: map[string]metric{}, layers: map[string]metric{}, outputs: map[string]any{}}
}

func (r *report) e2e(name string, v float64, unit string)   { r.endToEnd[name] = metric{v, unit} }
func (r *report) layer(name string, v float64, unit string) { r.layers[name] = metric{v, unit} }

// outcome records one operation: ok is whether its outcome was correct.
// The first few wrong outcomes are kept for the error report.
func (r *report) outcome(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 5 {
			r.gates = append(r.gates, fmt.Sprintf(format, args...))
		}
	}
}

// gate records a run-level correctness check that is not one operation.
func (r *report) gate(ok bool, format string, args ...any) {
	if !ok {
		r.gates = append(r.gates, fmt.Sprintf(format, args...))
	}
}

func (r *report) okShare() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.attempted-r.failed) / float64(r.attempted)
}

func (r *report) correct() bool {
	return r.attempted > 0 && r.failed == 0 && len(r.gates) == 0
}

func (r *report) print(w io.Writer, o options, hostStart, hostEnd float64) (int, error) {
	machine := machineRecord()
	machine["sha256_mb_per_s_start"] = hostStart
	machine["sha256_mb_per_s_end"] = hostEnd
	specs, got := endToEndMetrics, r.endToEnd
	if o.trace {
		specs, got = layerMetrics, r.layers
	}
	metrics, err := collect(specs, got, o.workload)
	if err != nil {
		return 1, err
	}
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"machine": machine, "workload": o.workload, "seed": o.seed, "trace": o.trace}); err != nil {
		return 1, err
	}
	if len(r.outputs) > 0 {
		if err := enc.Encode(map[string]any{"outputs": r.outputs}); err != nil {
			return 1, err
		}
	}
	if err := enc.Encode(res); err != nil {
		return 1, err
	}
	if !res.Correct {
		for _, g := range r.gates {
			fmt.Fprintln(os.Stderr, "perfbench: gate failed:", g)
		}
		return 1, fmt.Errorf("%s: %d of %d operations wrong, %d gate failures", o.workload, r.failed, r.attempted, len(r.gates))
	}
	return 0, nil
}

// machineRecord describes the host a result came from.
func machineRecord() map[string]any {
	kernel := "generic"
	if fp.SupportAdx {
		kernel = "adx"
	}
	return map[string]any{
		"goarch":     runtime.GOARCH,
		"cpu_model":  cpuModel(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"fp_kernel":  kernel,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sha256MBPerSec times a fixed SHA-256 loop. Timed at the start and end of
// every run, it separates host drift from a regression: a slower host
// slows this loop too, a regression does not.
func sha256MBPerSec() float64 {
	buf := make([]byte, 64<<10)
	const rounds = 512 // 32 MiB
	t0 := time.Now()
	var sum [32]byte
	for i := 0; i < rounds; i++ {
		buf[0] = sum[0]
		sum = sha256.Sum256(buf)
	}
	return float64(rounds*len(buf)) / 1e6 / time.Since(t0).Seconds()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// plane counts the work each plane did in this process, so a run can prove
// it touched only its own: pairings from the bn254 operation counters,
// HTTP requests from the counting transport, simulator events from the
// trials the manet workload ran.
type plane struct {
	pairings, httpRequests, simEvents uint64
}

var (
	httpRequests atomic.Uint64
	simEvents    atomic.Uint64
)

func (p plane) sub(q plane) plane {
	return plane{p.pairings - q.pairings, p.httpRequests - q.httpRequests, p.simEvents - q.simEvents}
}

// countingTransport counts every HTTP round trip made through it.
type countingTransport struct {
	base http.RoundTripper
	n    *atomic.Uint64
}

func (c countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.base.RoundTrip(req)
}

// installHTTPCounter routes the default transport (which the kgcd combiner
// uses to reach its replicas) through the process-wide request counter.
func installHTTPCounter() {
	if _, done := http.DefaultTransport.(countingTransport); !done {
		http.DefaultTransport = countingTransport{http.DefaultTransport, &httpRequests}
	}
}

// checkIsolation fails the run when a workload did work in another plane.
func (r *report) checkIsolation(workload string, p plane) {
	switch workload {
	case "wire_verify":
		r.gate(p.simEvents == 0, "wire_verify ran %d simulator events", p.simEvents)
		r.gate(p.httpRequests == 0, "wire_verify made %d HTTP requests", p.httpRequests)
	case "kgc_enroll":
		r.gate(p.simEvents == 0, "kgc_enroll ran %d simulator events", p.simEvents)
	case "manet_trial":
		r.gate(p.pairings == 0, "manet_trial computed %d pairings", p.pairings)
		r.gate(p.httpRequests == 0, "manet_trial made %d HTTP requests", p.httpRequests)
	}
}

// stream returns a deterministic random stream for one purpose of one
// workload seed; distinct labels give independent streams.
func stream(seed int64, label string) *rand.ChaCha8 {
	h := sha256.New()
	_ = binary.Write(h, binary.BigEndian, seed) // hash writes cannot fail
	h.Write([]byte(label))
	var key [32]byte
	copy(key[:], h.Sum(nil))
	return rand.NewChaCha8(key)
}

// quantile returns the q-quantile of xs by nearest rank; xs is sorted in
// place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// setup runs build setupRepeats times and reports the median duration as
// setup_s; the first build is timed from process start, so it also carries
// runtime start-up and every lazy process-wide table.
func setup[T any](rep *report, build func(last bool) (T, error)) (T, error) {
	var (
		v    T
		durs []float64
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if v, err = build(i == setupRepeats-1); err != nil {
			return v, fmt.Errorf("setup: %w", err)
		}
		durs = append(durs, time.Since(t0).Seconds())
		if i == 0 {
			rep.layer("setup.first_s", durs[0], "s")
		}
	}
	rep.e2e("setup_s", median(durs), "s")
	quiesce()
	return v, nil
}

// quiesce runs between phases: collect garbage so one phase's heap does not
// bill the next phase's collector.
func quiesce() { runtime.GC() }

// runRounds runs a fixed number of rounds: as many rounds of nominal length
// as fit in o.seconds, and at least minRounds. The count depends on the
// flags alone, not on how fast the host runs, so every run does the same
// work and its process state — heap size, cache contents, GC pacing —
// follows the same course; a slower host makes the run longer, not
// shorter.
func runRounds(o options, tr *Tracer, nominal time.Duration, round func(i int) error) error {
	n := max(minRounds(tr), int(math.Round(o.seconds*float64(time.Second)/float64(nominal))))
	for i := 0; i < n; i++ {
		if err := round(i); err != nil {
			return err
		}
	}
	return nil
}

// roundTracer returns the tracer a round uses: a traced run alternates
// untraced and traced rounds, starting untraced.
func roundTracer(tr *Tracer, round int) *Tracer {
	if round%2 == 0 {
		return nil
	}
	return tr
}

// minRounds is the fewest rounds a run makes: a traced run needs an
// untraced and a traced one.
func minRounds(tr *Tracer) int {
	if tr != nil {
		return 2
	}
	return 1
}

func durMs(d time.Duration) float64 { return float64(d) / 1e6 }
func durUs(d time.Duration) float64 { return float64(d) / 1e3 }

func readPlane() plane {
	return plane{
		pairings:     bn254.ReadOpCounts().Pairings,
		httpRequests: httpRequests.Load() + clientRequests.Load(),
		simEvents:    simEvents.Load(),
	}
}
