package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mccls/internal/bn254"
	"mccls/internal/core"
	"mccls/internal/kgcd"
	"mccls/internal/threshold"
)

// kgcRound is one round's length on the 2-vCPU Xeon VM the benchmark was
// tuned on; it sets how many rounds fit in --seconds.
const kgcRound = 2500 * time.Millisecond

// The kgc_enroll deployment: a t-of-n cluster on loopback driven by a
// closed loop of kgcClients clients, each keeping one enrollment in flight.
// The loop is closed because a node waits for its key before it can sign.
const (
	kgcT       = 2
	kgcN       = 3
	kgcClients = 2
	kgcWarmup  = 16  // enrollments per client before timing starts
	kgcReplays = 256 // identities the traced run decomposes

	// A round is one cold block and kgcWarmBlocks warm blocks.
	kgcColdBlock  = 1000
	kgcWarmBlock  = 1000
	kgcWarmBlocks = 5
)

// clientRequests counts the benchmark clients' HTTP attempts, retries
// included.
var clientRequests atomic.Uint64

type kgcDeployment struct {
	master  *big.Int
	cluster *kgcd.Cluster
	clients []*kgcd.Client
	tport   *http.Transport
	// shares is the tracer the replica handlers record share spans to;
	// nil between traced rounds.
	shares atomic.Pointer[Tracer]
}

func (d *kgcDeployment) close() {
	d.cluster.Close()
	d.tport.CloseIdleConnections()
	if t, ok := http.DefaultTransport.(countingTransport); ok {
		if c, ok := t.base.(interface{ CloseIdleConnections() }); ok {
			c.CloseIdleConnections()
		}
	}
}

// kgcID derives the i-th identity of a purpose from the seed.
func kgcID(seed int64, purpose string, i int) string {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(seed))
	binary.BigEndian.PutUint64(buf[8:], uint64(i))
	h := sha256.Sum256(append([]byte(purpose), buf[:]...))
	return fmt.Sprintf("veh-%d-%x@%s", i, h[:6], purpose)
}

// startKGC brings up the cluster with a seeded master, connects the
// clients and warms the connections, caches and hedge estimator.
func startKGC(seed int64, tr *Tracer) (*kgcDeployment, error) {
	master, err := bn254.RandomScalar(stream(seed, "kgc/master"))
	if err != nil {
		return nil, err
	}
	cfg := kgcd.ClusterConfig{
		T: kgcT, N: kgcN, Master: master, Rng: stream(seed, "kgc/split"),
		// Rate limiting off: the benchmark measures issuance and caching.
		Combiner: kgcd.Config{RatePerSec: -1},
	}
	d := &kgcDeployment{master: master,
		tport: &http.Transport{MaxIdleConns: 4 * kgcClients, MaxIdleConnsPerHost: 4 * kgcClients}}
	if tr != nil {
		cfg.SignerMiddleware = shareSpans(&d.shares)
	}
	if d.cluster, err = kgcd.StartCluster(cfg); err != nil {
		return nil, err
	}
	hc := &http.Client{Transport: countingTransport{d.tport, &clientRequests}, Timeout: 10 * time.Second}
	for i := 0; i < kgcClients; i++ {
		d.clients = append(d.clients, kgcd.NewClientWithConfig(d.cluster.URL, hc, kgcd.ClientConfig{JitterSeed: seed + int64(i)}))
	}
	ctx := context.Background()
	if _, err := d.clients[0].Params(ctx); err != nil {
		d.close()
		return nil, err
	}
	for i := 0; i < kgcWarmup; i++ {
		for w, c := range d.clients {
			if _, err := c.Enroll(ctx, kgcID(seed, "warmup", i*kgcClients+w)); err != nil {
				d.close()
				return nil, fmt.Errorf("warm-up enrollment: %w", err)
			}
		}
	}
	return d, nil
}

// shareSpans wraps each replica handler with a span per /share request,
// keyed by the identity in the request body, while a tracer is set.
func shareSpans(cur *atomic.Pointer[Tracer]) func(int, http.Handler) http.Handler {
	return func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			tr := cur.Load()
			if tr == nil || r.URL.Path != "/share" {
				h.ServeHTTP(w, r)
				return
			}
			start := tr.Now()
			body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			var req struct {
				ID string `json:"id"`
			}
			_ = json.Unmarshal(body, &req) // a malformed body is the handler's to reject
			r.Body = io.NopCloser(bytes.NewReader(body))
			h.ServeHTTP(w, r)
			tr.Record("kgcd.share", req.ID, 0, start, tr.Now())
		})
	}
}

type enrollSample struct {
	id     string
	start  time.Time
	dur    time.Duration
	key    []byte
	cached bool
	err    error
}

// enrollBlock runs the closed loop over ids: every client keeps one
// enrollment in flight, taking the next identity when its reply arrives.
func enrollBlock(d *kgcDeployment, ids []string, tr *Tracer, span string) []enrollSample {
	var next atomic.Int64
	out := make([]enrollSample, len(ids))
	var wg sync.WaitGroup
	for _, c := range d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(ids); i = int(next.Add(1) - 1) {
				t0 := time.Now()
				res, err := c.Enroll(context.Background(), ids[i])
				dt := time.Since(t0)
				s := enrollSample{id: ids[i], start: t0, dur: dt, err: err}
				if err == nil {
					s.key, s.cached = res.PartialKey.Marshal(), res.Cached
				}
				out[i] = s
				if tr != nil {
					at := t0.Sub(tr.epoch)
					tr.Record(span, ids[i], 0, at, at+dt)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// scrape reads the combiner's counters.
func scrape(c *kgcd.Client) (map[string]float64, error) {
	raw, err := c.RawMetrics(context.Background())
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, nil
}

// keyOK is the enrollment gate: a reply must be byte-equal to the
// reference (the single-master oracle for a cold reply, the identity's
// cold reply for a warm one).
func keyOK(got, want []byte) bool { return got != nil && bytes.Equal(got, want) }

func runKGC(o options, tr *Tracer, rep *report) error {
	d, err := setup(rep, func(last bool) (*kgcDeployment, error) {
		d, err := startKGC(o.seed, tr)
		if err == nil && !last {
			d.close()
		}
		return d, err
	})
	if err != nil {
		return err
	}
	defer d.close()
	return measureKGC(o, d, tr, rep)
}

// Windows of the two kgc_enroll phases: op1 is a cold enrollment (32 a
// window, ≈30 ms with two clients), op2 a warm one (128 a window, ≈15 ms).
const (
	kgcColdWindow = 32
	kgcWarmWindow = 128
)

// measureKGC runs a fixed number of rounds. A round is a cold block of
// unique identities (every one a cache miss, op1) and then kgcWarmBlocks
// warm blocks re-enrolling identities of the cold blocks so far (cache
// hits, op2). Interleaving the blocks spreads both phases over the whole
// run.
func measureKGC(o options, d *kgcDeployment, tr *Tracer, rep *report) error {
	var (
		cold                 []enrollSample
		coldKey              = map[string][]byte{}
		nWarm                int
		coldG2, coldHTTP     uint64
		warmHTTP, warmAllocs uint64
		coldCtr, warmCtr     = map[string]float64{}, map[string]float64{}
	)
	rec := newRecorder(kgcColdWindow, kgcWarmWindow)
	prof := newPhaseProfiles()
	warmPick := rand.New(stream(o.seed, "kgc/warm"))
	block := func(ids []string, rtr *Tracer, k int, ctr map[string]float64, http, allocs *uint64) ([]enrollSample, error) {
		m0, err := scrape(d.clients[0])
		if err != nil {
			return nil, err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		h0 := clientRequests.Load()
		// Fresh client connections per block: which goroutines and CPUs a
		// connection's client and server sides settle on holds for the
		// connection's life and moves warm latency by a third, so each
		// block draws that pairing anew.
		d.tport.CloseIdleConnections()
		d.shares.Store(rtr)
		stop := prof.start(rtr, k)
		s := enrollBlock(d, ids, rtr, []string{"kgcd.enroll.cold", "kgcd.enroll.warm"}[k-1])
		if err := stop(); err != nil {
			return nil, err
		}
		d.shares.Store(nil)
		*http += clientRequests.Load() - h0
		runtime.ReadMemStats(&ms1)
		*allocs += ms1.Mallocs - ms0.Mallocs
		m1, err := scrape(d.clients[0])
		if err != nil {
			return nil, err
		}
		for k := range m1 {
			ctr[k] += m1[k] - m0[k]
		}
		ph := rec.op(rtr, k)
		ops := make([]op, len(s))
		for i, x := range s {
			at := ph.since(x.start)
			ops[i] = op{start: at, end: at + x.dur, items: 1}
		}
		ph.add(ops)
		return s, nil
	}
	err := runRounds(o, tr, kgcRound, func(round int) error {
		rtr := roundTracer(tr, round)
		ids := make([]string, kgcColdBlock)
		for i := range ids {
			ids[i] = kgcID(o.seed, "cold", round*kgcColdBlock+i)
		}
		ops := bn254.ReadOpCounts()
		s, err := block(ids, rtr, 1, coldCtr, &coldHTTP, new(uint64))
		if err != nil {
			return err
		}
		coldG2 += bn254.ReadOpCounts().Sub(ops).G2ScalarMults
		cold = append(cold, s...)
		for _, x := range s {
			coldKey[x.id] = x.key
		}
		quiesce()

		for b := 0; b < kgcWarmBlocks; b++ {
			ids = make([]string, kgcWarmBlock)
			for i := range ids {
				ids[i] = cold[warmPick.IntN(len(cold))].id
			}
			s, err = block(ids, rtr, 2, warmCtr, &warmHTTP, &warmAllocs)
			if err != nil {
				return err
			}
			// Check and drop the replies now, outside the block: keeping
			// every warm key would grow the heap through the run and with
			// it the collector's pacing.
			for _, x := range s {
				rep.outcome(x.err == nil && keyOK(x.key, coldKey[x.id]),
					"warm enrollment %q: err %v, equal to cold reply %v", x.id, x.err, keyOK(x.key, coldKey[x.id]))
			}
			nWarm += len(s)
			quiesce()
		}
		return nil
	})
	if err != nil {
		return err
	}
	rec.report(rep, tr != nil)

	// Cold keys against the single-master oracle, outside the timed
	// blocks (warm keys were checked against them after each block).
	oracle, err := core.NewKGCFromMaster(d.master)
	if err != nil {
		return err
	}
	want := make([][]byte, len(cold))
	var wg sync.WaitGroup
	for w := 0; w < kgcClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(cold); i += kgcClients {
				want[i] = oracle.ExtractPartialPrivateKey(cold[i].id).Marshal()
			}
		}()
	}
	wg.Wait()
	for i, s := range cold {
		rep.outcome(s.err == nil && !s.cached && keyOK(s.key, want[i]),
			"cold enrollment %q: err %v, cached %v, oracle match %v", s.id, s.err, s.cached, keyOK(s.key, want[i]))
	}

	if tr == nil {
		return nil
	}
	nCold := float64(len(cold))
	rep.layer("kgcd.shares_per_cold_enroll", coldCtr["kgcd_share_requests_total"]/nCold, "count")
	rep.layer("kgcd.hedges", coldCtr["kgcd_hedged_requests_total"], "count")
	rep.layer("kgcd.cache_hit_share", warmCtr["kgcd_cache_hits_total"]/warmCtr["kgcd_enroll_total"], "share")
	rep.layer("kgcd.http_attempts_per_enroll", float64(coldHTTP+warmHTTP)/(nCold+float64(nWarm)), "count")
	rep.layer("kgcd.allocs_per_warm_enroll", float64(warmAllocs)/float64(nWarm), "count")
	rep.layer("bn254.g2_mults_per_cold_enroll", float64(coldG2)/nCold, "count")
	prof.report(rep)
	kgcLayers(o, d, cold, tr, rep)
	return nil
}

// kgcLayers derives the per-layer metrics of a traced kgc_enroll run: the
// share spans recorded at the replicas, each cold enrollment's fan-out wait
// and combiner self time, and decomposed replays of issuance on the run's
// own identities. A layer's time is reported as its share of the traced
// median cold enrollment (the client's decode, of the warm one); the times
// themselves go to the run's outputs.
func kgcLayers(o options, d *kgcDeployment, cold []enrollSample, tr *Tracer, rep *report) {
	spans := tr.Spans()
	kids := Children(spans, "kgcd.enroll.cold")
	var share, wait, self []float64
	for _, s := range spans {
		switch s.Name {
		case "kgcd.share":
			share = append(share, durUs(s.Dur()))
		case "kgcd.enroll.cold":
			ks := kids[s.ID]
			if len(ks) < kgcT {
				rep.gate(false, "cold enrollment %q has %d share spans, want at least %d", s.Key, len(ks), kgcT)
				continue
			}
			first := ks[0].Start
			ends := make([]time.Duration, len(ks))
			for i, k := range ks {
				first = min(first, k.Start)
				ends[i] = k.End
			}
			sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
			wait = append(wait, durUs(ends[kgcT-1]-first))
			self = append(self, durUs(SelfTime(s, ks)))
		}
	}
	us := map[string]float64{
		"kgcd.enroll.cold":   median(spanUs(tr.Named("kgcd.enroll.cold"))),
		"kgcd.enroll.warm":   median(spanUs(tr.Named("kgcd.enroll.warm"))),
		"kgcd.replica":       median(share),
		"kgcd.fanout_wait":   median(wait),
		"kgcd.combiner_self": median(self),
	}

	// Replays of issuance on the run's first cold identities, with the
	// shares the cluster was split into (the same seeded stream).
	shares, err := threshold.Split(d.master, kgcT, kgcN, stream(o.seed, "kgc/split"))
	if err != nil {
		rep.gate(false, "replay split: %v", err)
		return
	}
	params := d.cluster.Params
	signers := make([]*threshold.Signer, kgcT)
	for j := range signers {
		if signers[j], err = threshold.NewSigner(params, shares[j]); err != nil {
			rep.gate(false, "replay signer: %v", err)
			return
		}
	}
	var qid, g2, issue, ksDec, combine, ppkDec []float64
	for i := 0; i < len(cold) && i < kgcReplays; i++ {
		id := cold[i].id
		t0 := time.Now()
		q := params.QID(id)
		t1 := time.Now()
		new(bn254.G2).ScalarMult(q, shares[0].Value)
		t2 := time.Now()
		kss := make([]*threshold.KeyShare, kgcT)
		for j, sg := range signers {
			t := time.Now()
			kss[j] = sg.Issue(id)
			issue = append(issue, durUs(time.Since(t)))
		}
		for _, ks := range kss {
			b := ks.Marshal()
			t := time.Now()
			_, err := threshold.UnmarshalKeyShare(id, b)
			ksDec = append(ksDec, durUs(time.Since(t)))
			rep.gate(err == nil, "replay key share decode %q: %v", id, err)
		}
		t3 := time.Now()
		ppk, err := threshold.Combine(id, kss)
		t4 := time.Now()
		if err != nil {
			rep.gate(false, "replay combine %q: %v", id, err)
			return
		}
		b := ppk.Marshal()
		rep.gate(keyOK(b, cold[i].key), "replayed issuance of %q differs from the cluster's reply", id)
		t5 := time.Now()
		_, err = core.UnmarshalPartialPrivateKey(b)
		t6 := time.Now()
		rep.gate(err == nil, "replay partial key decode %q: %v", id, err)
		qid = append(qid, durUs(t1.Sub(t0)))
		g2 = append(g2, durUs(t2.Sub(t1)))
		combine = append(combine, durUs(t4.Sub(t3)))
		ppkDec = append(ppkDec, durUs(t6.Sub(t5)))
	}
	us["bn254.hash_to_g2"] = median(qid)
	us["bn254.g2_mult"] = median(g2)
	us["threshold.issue"] = median(issue)
	us["threshold.keyshare_decode"] = median(ksDec)
	us["threshold.combine"] = median(combine)
	us["core.ppk_decode"] = median(ppkDec)
	// What of the combiner's own time the decode and combine replays do
	// not explain: HTTP and JSON.
	us["kgcd.combiner_residual"] = us["kgcd.combiner_self"] - (kgcT*us["threshold.keyshare_decode"] + us["threshold.combine"] + us["core.ppk_decode"])
	rep.outputs["layers_us"] = us

	for _, name := range []string{"bn254.hash_to_g2", "bn254.g2_mult", "threshold.issue", "threshold.keyshare_decode",
		"threshold.combine", "kgcd.replica", "kgcd.fanout_wait", "kgcd.combiner_self", "kgcd.combiner_residual"} {
		rep.layer(name+"_share", us[name]/us["kgcd.enroll.cold"], "share")
	}
	rep.layer("core.ppk_decode_share", us["core.ppk_decode"]/us["kgcd.enroll.warm"], "share")

	// Reconciliation: fan-out wait plus combiner self time must add up to
	// the traced median cold enrollment.
	whole := us["kgcd.enroll.cold"]
	sum := us["kgcd.fanout_wait"] + us["kgcd.combiner_self"]
	gap := (sum - whole) / whole
	rep.layer("recon.enroll_gap_share", gap, "share")
	rep.gate(gap <= reconTolerance && gap >= -reconTolerance,
		"enrollment layers sum to %.1f us, the traced median cold enrollment is %.1f us (gap %.3f, tolerance %.2f)", sum, whole, gap, reconTolerance)
}
