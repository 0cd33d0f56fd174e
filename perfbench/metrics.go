package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// metricSpec is one metric as BENCHMARK.json lists it. owners names the
// workloads that measure it, space-separated; empty means every workload.
// Every workload prints every metric: a per-layer metric of another
// workload's plane reads 0, a layer the run never reached.
type metricSpec struct {
	name, unit, owners string
}

func (m metricSpec) ownedBy(workload string) bool {
	return m.owners == "" || slices.Contains(strings.Fields(m.owners), workload)
}

// endToEndMetrics are printed with --trace 0. Each workload has two
// phases, op1 and op2 (see README.md for what they are on each):
// opN_ms is the median latency of one operation in the phase's fastest
// window, opN_per_s the operations per second of its fastest window.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s", ""},
	{"peak_rss_mb", "MB", ""},
	{"ok_share", "share", ""},
	{"op1_ms", "ms", ""},
	{"op1_per_s", "1/s", ""},
	{"op2_ms", "ms", ""},
	{"op2_per_s", "1/s", ""},
}

const (
	wireWL  = "wire_verify"
	kgcWL   = "kgc_enroll"
	manetWL = "manet_trial"
)

// layerMetrics are printed with --trace 1.
var layerMetrics = func() []metricSpec {
	m := []metricSpec{
		{"setup.first_s", "s", ""},
		{"host.sha256_mb_per_s", "MB/s", ""},
		{"host.sha256_end_over_start", "ratio", ""},
		{"plane.pairings", "count", ""},
		{"plane.http_requests", "count", ""},
		{"plane.sim_events", "count", ""},
		{"trace.overhead_share.op1_ms", "share", ""},
		{"trace.overhead_share.op2_ms", "share", ""},
	}
	for _, op := range []string{"op1", "op2"} {
		for _, b := range cpuBuckets {
			m = append(m, metricSpec{"cpu." + op + "." + b.name, "share", ""})
		}
		m = append(m, metricSpec{"cpu." + op + ".other", "share", ""})
	}
	m = append(m,
		metricSpec{"bn254.pairings_per_verify", "count", wireWL},
		metricSpec{"bn254.final_exps_per_verify", "count", wireWL},
		metricSpec{"bn254.cyc_squares_per_verify", "count", wireWL},
		metricSpec{"bn254.miller_pairs_per_batch_sig", "count", wireWL},
		metricSpec{"bn254.final_exps_per_batch_sig", "count", wireWL},
		metricSpec{"bn254.g1_base_mult_add_share", "share", wireWL},
		metricSpec{"bn254.miller_loop_share", "share", wireWL},
		metricSpec{"bn254.final_exp_share", "share", wireWL},
		metricSpec{"bn254.hash_to_g2_share", "share", wireWL + " " + kgcWL},
		metricSpec{"core.decode_pk_share", "share", wireWL},
		metricSpec{"core.decode_sig_share", "share", wireWL},
		metricSpec{"core.verify_share", "share", wireWL},
		metricSpec{"core.verify_residual_share", "share", wireWL},
		metricSpec{"core.first_contact_ratio", "ratio", wireWL},
		metricSpec{"core.verifier_cache_misses", "count", wireWL},
		metricSpec{"core.sign_allocs", "count", wireWL},
		metricSpec{"core.verify_allocs", "count", wireWL},
		metricSpec{"wire.self_share", "share", wireWL},
		metricSpec{"batch.decode_share", "share", wireWL},
		metricSpec{"batch.rejected_windows", "count", wireWL},
		metricSpec{"batch.offenders", "count", wireWL},
		metricSpec{"recon.verify_gap_share", "share", wireWL},

		metricSpec{"bn254.g2_mult_share", "share", kgcWL},
		metricSpec{"bn254.g2_mults_per_cold_enroll", "count", kgcWL},
		metricSpec{"threshold.issue_share", "share", kgcWL},
		metricSpec{"threshold.keyshare_decode_share", "share", kgcWL},
		metricSpec{"threshold.combine_share", "share", kgcWL},
		metricSpec{"core.ppk_decode_share", "share", kgcWL},
		metricSpec{"kgcd.replica_share", "share", kgcWL},
		metricSpec{"kgcd.fanout_wait_share", "share", kgcWL},
		metricSpec{"kgcd.combiner_self_share", "share", kgcWL},
		metricSpec{"kgcd.combiner_residual_share", "share", kgcWL},
		metricSpec{"kgcd.shares_per_cold_enroll", "count", kgcWL},
		metricSpec{"kgcd.http_attempts_per_enroll", "count", kgcWL},
		metricSpec{"kgcd.hedges", "count", kgcWL},
		metricSpec{"kgcd.cache_hit_share", "share", kgcWL},
		metricSpec{"kgcd.allocs_per_warm_enroll", "count", kgcWL},
		metricSpec{"recon.enroll_gap_share", "share", kgcWL},
	)
	for _, kind := range []string{"paper", "city"} {
		for _, n := range []struct{ name, unit string }{
			{"sim.events", "count"},
			{"sim.events_per_s", "1/s"},
			{"sim.peak_queue", "count"},
			{"sim.event_allocs", "count"},
			{"manet.allocs_per_event", "count"},
			{"manet.gc_cycles", "count"},
			{"radio.grid_queries", "count"},
			{"radio.grid_candidates_per_query", "count"},
			{"radio.grid_rebuilds", "count"},
		} {
			m = append(m, metricSpec{n.name + "." + kind, n.unit, manetWL})
		}
	}
	return m
}()

// collect builds the result's metrics for a workload from what its run
// reported: every spec present in its unit, the workload's own metrics
// measured, no metric outside the specs.
func collect(specs []metricSpec, got map[string]metric, workload string) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	known := map[string]bool{}
	for _, s := range specs {
		known[s.name] = true
		v, ok := got[s.name]
		switch {
		case ok && (math.IsNaN(v.Value) || math.IsInf(v.Value, 0)):
			return nil, fmt.Errorf("metric %s is %v", s.name, v.Value)
		case ok && v.Unit != s.unit:
			return nil, fmt.Errorf("metric %s reported in %s, specified in %s", s.name, v.Unit, s.unit)
		case ok:
			out[s.name] = v
		case s.ownedBy(workload):
			return nil, fmt.Errorf("%s did not measure its metric %s", workload, s.name)
		default:
			out[s.name] = metric{0, s.unit}
		}
	}
	for name := range got {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not in the benchmark's specification", name)
		}
	}
	return out, nil
}
