package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"strconv"
	"time"

	"mccls/internal/experiments"
)

// manetRound is one round's length on the 2-vCPU Xeon VM the benchmark
// was tuned on; it sets how many rounds fit in --seconds.
const manetRound = 2700 * time.Millisecond

// The two manet_trial trial kinds use the same layers differently: the
// paper trial is a small dense network under black-hole attack (AODV and
// the auth rejection path), the city trial a 500-node street grid (the
// event heap and the neighbour index).
func trialScenario(kind string, seed int64) experiments.Scenario {
	if kind == "paper" {
		return experiments.Scenario{Seed: seed, MaxSpeed: 10,
			Security: experiments.McCLSCost, Attack: experiments.Blackhole}
	}
	return experiments.Scenario{Seed: seed, Nodes: 500, Width: 2000, Height: 2000,
		Duration: 60 * time.Second, MaxSpeed: 10, Mobility: experiments.ManhattanMobility,
		RangeJitter: 0.3, Security: experiments.McCLSCost}
}

// trialKinds lists the kinds: how many seeds are recorded and how many
// seeds of the pool a run draws. A round runs every drawn paper seed
// paperRepeats times over and the drawn city seed once, so a run repeats
// every trial it draws many times (a seed's fastest repeat is its time)
// and both kinds see the same host over the run. A city trial takes two
// seconds, so one seed gets all of a run's city repeats.
var trialKinds = []struct {
	name       string
	candidates int
	draw       int
}{
	{"paper", 96, 2},
	{"city", 32, 1},
}

// paperRepeats is how many times a round runs each drawn paper seed.
const paperRepeats = 6

// trialBand bounds the trial pool: a seed joins it when its event count is
// within this share of the median over all recorded seeds. A trial's cost
// grows with its event count, which varies five-fold across seeds (a
// partitioned city floods route requests), so without the band the wall
// time per trial would measure which seeds a run drew rather than the
// simulator.
const trialBand = 0.05

// trialStats are the simulated statistics of one trial. They are outputs
// fixed by the seed: a change that moves them changed the simulation.
type trialStats struct {
	Events        uint64 `json:"events"`
	DataSent      uint64 `json:"data_sent"`
	DataDelivered uint64 `json:"data_delivered"`
	RREQInitiated uint64 `json:"rreq_initiated"`
	RREQForwarded uint64 `json:"rreq_forwarded"`
	AuthRejected  uint64 `json:"auth_rejected"`
	AttackerDrops uint64 `json:"attacker_drops"`
}

func statsOf(r experiments.Result) trialStats {
	return trialStats{r.Events, r.DataSent, r.DataDelivered, r.RREQInitiated,
		r.RREQForwarded, r.AuthRejected, r.AttackerDrops}
}

// goldenTrial is one recorded trial of the pool.
type goldenTrial struct {
	Seed  int64      `json:"seed"`
	Stats trialStats `json:"stats"`
}

//go:embed golden_trials.json
var goldenJSON []byte

func loadGolden() (map[string][]goldenTrial, error) {
	var g map[string][]goldenTrial
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden trials: %w", err)
	}
	for _, k := range trialKinds {
		if len(g[k.name]) != k.candidates {
			return nil, fmt.Errorf("golden trials: %d %s trials, want %d", len(g[k.name]), k.name, k.candidates)
		}
		g[k.name] = trialPool(g[k.name])
		if len(g[k.name]) < k.draw {
			return nil, fmt.Errorf("golden trials: %d %s seeds in the band, a run draws %d", len(g[k.name]), k.name, k.draw)
		}
	}
	return g, nil
}

// trialPool keeps the recorded trials whose event count lies within
// trialBand of the median.
func trialPool(all []goldenTrial) []goldenTrial {
	events := make([]float64, len(all))
	for i, g := range all {
		events[i] = float64(g.Stats.Events)
	}
	mid := median(events)
	var pool []goldenTrial
	for _, g := range all {
		if e := float64(g.Stats.Events); e >= mid*(1-trialBand) && e <= mid*(1+trialBand) {
			pool = append(pool, g)
		}
	}
	return pool
}

// recordGolden runs every pool trial and writes the statistics file the
// manet_trial gate checks against. Re-record only when a change is meant
// to alter the simulation.
func recordGolden(path string) error {
	g := map[string][]goldenTrial{}
	for _, k := range trialKinds {
		for seed := int64(1); seed <= int64(k.candidates); seed++ {
			res, err := trialScenario(k.name, seed).Run()
			if err != nil {
				return fmt.Errorf("%s trial %d: %w", k.name, seed, err)
			}
			g[k.name] = append(g[k.name], goldenTrial{seed, statsOf(res)})
		}
	}
	out, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// drawTrials picks n distinct trials of the pool.
func drawTrials(pool []goldenTrial, n int, r *rand.Rand) []goldenTrial {
	out := make([]goldenTrial, n)
	for i, j := range r.Perm(len(pool))[:n] {
		out[i] = pool[j]
	}
	return out
}

// trialRun is one measured trial.
type trialRun struct {
	seed   int64
	start  time.Time
	wall   time.Duration
	res    experiments.Result
	allocs uint64
	gcs    uint32
}

// runTrial runs one trial from a collected heap and checks its simulated
// statistics against the golden record.
func runTrial(kind string, g goldenTrial, tr *Tracer, rep *report) (trialRun, error) {
	quiesce()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := trialScenario(kind, g.Seed).Run()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return trialRun{}, fmt.Errorf("%s trial seed %d: %w", kind, g.Seed, err)
	}
	simEvents.Add(res.Events)
	got := statsOf(res)
	rep.outcome(got == g.Stats, "%s trial seed %d: statistics %+v, recorded %+v", kind, g.Seed, got, g.Stats)
	if tr != nil {
		at := start.Sub(tr.epoch)
		tr.Record("manet.trial."+kind, strconv.FormatInt(g.Seed, 10), 0, at, at+wall)
	}
	return trialRun{g.Seed, start, wall, res, after.Mallocs - before.Mallocs, after.NumGC - before.NumGC}, nil
}

func runManet(o options, tr *Tracer, rep *report) error {
	golden, err := setup(rep, func(bool) (map[string][]goldenTrial, error) {
		g, err := loadGolden()
		if err != nil {
			return nil, err
		}
		// Warm-up: one paper trial, so code paths and the heap are warm
		// before the first timed trial.
		warm := newReport()
		if _, err := runTrial("paper", g["paper"][0], nil, warm); err != nil {
			return nil, err
		}
		if !warm.correct() {
			return nil, fmt.Errorf("warm-up trial: %v", warm.gates)
		}
		return g, nil
	})
	if err != nil {
		return err
	}
	r := rand.New(stream(o.seed, "manet/trials"))
	drawn := make([][]goldenTrial, len(trialKinds))
	for ki, k := range trialKinds {
		drawn[ki] = drawTrials(golden[k.name], k.draw, r)
	}
	// op1 is a paper trial, op2 a city trial; each trial seed is its own
	// window across its repeats.
	rec := newRecorder(0, 0)
	prof := newPhaseProfiles()
	runs := map[string][]trialRun{} // traced rounds only
	outputs := map[string][]map[string]any{}
	err = runRounds(o, tr, manetRound, func(round int) error {
		rtr := roundTracer(tr, round)
		var paper []goldenTrial
		for i := 0; i < paperRepeats; i++ {
			paper = append(paper, drawn[0]...)
		}
		for ki, trials := range [][]goldenTrial{paper, drawn[1]} {
			kind := trialKinds[ki].name
			ph := rec.op(rtr, ki+1)
			stop := prof.start(rtr, ki+1)
			for _, g := range trials {
				run, err := runTrial(kind, g, rtr, rep)
				if err != nil {
					_ = stop() // the trial's error is the one to report
					return err
				}
				at := ph.since(run.start)
				ph.add([]op{{key: g.Seed, start: at, end: at + run.wall, items: 1}})
				if rtr != nil {
					runs[kind] = append(runs[kind], run)
				}
				outputs[kind] = append(outputs[kind], map[string]any{"seed": run.seed, "ms": durMs(run.wall), "stats": statsOf(run.res)})
			}
			if err := stop(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rec.report(rep, tr != nil)
	rep.outputs["trials"] = outputs
	if tr == nil {
		return nil
	}
	prof.report(rep)
	for _, k := range trialKinds {
		manetLayers(k.name, runs[k.name], rep)
	}
	return nil
}

// manetLayers reports the simulator-plane layer metrics of one trial kind:
// per trial, the simulator's own counters over its traced trials.
func manetLayers(kind string, runs []trialRun, rep *report) {
	var events, allocs, eventAllocs, queries, cands, rebuilds uint64
	var gcs uint32
	var wall time.Duration
	peak := 0
	for _, run := range runs {
		events += run.res.Events
		allocs += run.allocs
		eventAllocs += run.res.EventAllocs
		queries += run.res.Grid.Queries
		cands += run.res.Grid.Candidates
		rebuilds += run.res.Grid.Rebuilds
		gcs += run.gcs
		wall += run.wall
		peak = max(peak, run.res.PeakQueue)
	}
	n := float64(len(runs))
	rep.layer("sim.events."+kind, float64(events)/n, "count")
	rep.layer("sim.events_per_s."+kind, float64(events)/wall.Seconds(), "1/s")
	rep.layer("sim.peak_queue."+kind, float64(peak), "count")
	rep.layer("sim.event_allocs."+kind, float64(eventAllocs)/n, "count")
	rep.layer("manet.allocs_per_event."+kind, float64(allocs)/float64(events), "count")
	rep.layer("manet.gc_cycles."+kind, float64(gcs)/n, "count")
	rep.layer("radio.grid_queries."+kind, float64(queries)/n, "count")
	rep.layer("radio.grid_candidates_per_query."+kind, float64(cands)/float64(max(queries, 1)), "count")
	rep.layer("radio.grid_rebuilds."+kind, float64(rebuilds)/n, "count")
}
