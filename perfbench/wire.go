package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"slices"
	"strconv"
	"time"

	"mccls/internal/aodv"
	"mccls/internal/bn254"
	"mccls/internal/core"
)

// wireRound is one round's length on the 2-vCPU Xeon VM the benchmark
// was tuned on; it sets how many rounds fit in --seconds.
const wireRound = 3 * time.Second

// The wire_verify stream: wireSigners signers under one KGC sign
// wireMsgsPerSigner AODV route requests each, interleaved in seeded order,
// so 1/wireMsgsPerSigner of the verifications are first contacts. That
// share sits above 1%, which makes verify_ms_p99 the first-contact cost
// rather than a tail of noise.
const (
	wireSigners       = 64
	wireMsgsPerSigner = 16
	wireForgeryEvery  = 256 // one forged RREP per this many messages
	wireWindow        = 32  // flood window of the batch phase
	wireReplayEvery   = 4   // a traced pass decomposes one message in this many
)

// wireFixture is the seeded input of one wire_verify run.
type wireFixture struct {
	params  *core.Params
	ids     []string
	keys    []*core.PrivateKey
	pkBytes [][]byte // marshalled public key, per signer

	signer  []int    // per message: its signer
	signed  [][]byte // per message: the RREQ the signer signed
	payload [][]byte // per message: the bytes on the wire (an RREP where forged)
	forged  []bool
	sigs    [][]byte // per message: marshalled signature, from the sign phase
}

// buildWireFixture derives keys and messages from the seed. A forged
// message is a black-hole style RREP claiming a fresh route, carrying the
// signer's well-formed signature over a different message (its RREQ).
func buildWireFixture(seed int64, signers int) (*wireFixture, error) {
	master, err := bn254.RandomScalar(stream(seed, "wire/master"))
	if err != nil {
		return nil, err
	}
	kgc, err := core.NewKGCFromMaster(master)
	if err != nil {
		return nil, err
	}
	f := &wireFixture{params: kgc.Params()}
	r := rand.New(stream(seed, "wire/inputs"))
	keyRNG := stream(seed, "wire/keygen")
	for s := 0; s < signers; s++ {
		id := fmt.Sprintf("node-%d-%08x@manet", s, r.Uint32())
		sk, err := core.GenerateKeyPair(f.params, kgc.ExtractPartialPrivateKey(id), keyRNG)
		if err != nil {
			return nil, err
		}
		f.ids = append(f.ids, id)
		f.keys = append(f.keys, sk)
		f.pkBytes = append(f.pkBytes, sk.Public().Marshal())
	}
	type msg struct {
		signer     int
		rreq, rrep []byte
	}
	var msgs []msg
	for s := 0; s < signers; s++ {
		for k := 0; k < wireMsgsPerSigner; k++ {
			q := aodv.RREQ{
				ID: uint32(k + 1), Origin: s, OriginSeq: r.Uint32N(1 << 16),
				Dest: r.IntN(signers), DestSeq: r.Uint32N(1 << 16), SeqKnown: r.IntN(2) == 0,
				HopCount: r.IntN(8), TTL: 1 + r.IntN(16), Sender: s,
			}
			p := aodv.RREP{Origin: q.Origin, Dest: q.Dest, DestSeq: q.DestSeq + 1<<20,
				HopCount: 1, Lifetime: 10 * time.Second, Sender: s}
			msgs = append(msgs, msg{s, q.Encode(), p.Encode()})
		}
	}
	r.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
	n := len(msgs)
	f.forged = make([]bool, n)
	for lo := 0; lo < n; lo += wireForgeryEvery {
		f.forged[lo+r.IntN(min(wireForgeryEvery, n-lo))] = true
	}
	for i, m := range msgs {
		f.signer = append(f.signer, m.signer)
		f.signed = append(f.signed, m.rreq)
		if f.forged[i] {
			f.payload = append(f.payload, m.rrep)
		} else {
			f.payload = append(f.payload, m.rreq)
		}
	}
	f.sigs = make([][]byte, n)
	return f, nil
}

// verifyOutcomeOK is the verification gate: a forged message must be
// rejected as a failed verification, and every other message accepted.
func verifyOutcomeOK(forged bool, err error) bool {
	if forged {
		return errors.Is(err, core.ErrVerifyFailed)
	}
	return err == nil
}

// offendersOK is the batch gate: the window's offenders must be exactly
// its forged indices.
func offendersOK(want, got []int) bool { return slices.Equal(want, got) }

func runWire(o options, tr *Tracer, rep *report) error {
	f, err := setup(rep, func(bool) (*wireFixture, error) { return buildWireFixture(o.seed, wireSigners) })
	if err != nil {
		return err
	}
	return measureWire(o, f, tr, rep)
}

// Windows of the two wire_verify phases: op1 is one verification from
// bytes (16 a window, ≈16 ms), op2 one flood window of wireWindow
// signatures through VerifyMulti (each its own window, ≈20 ms).
const (
	wireVerifyWindow = 16
	wireBatchWindow  = 1
)

// measureWire runs a fixed number of rounds. A round is one pass of each
// phase over the whole stream: sign, verify on a fresh verifier (op1),
// then batch on that now-warm verifier (op2). Interleaving the phases
// spreads each one's samples over the whole run.
func measureWire(o options, f *wireFixture, tr *Tracer, rep *report) error {
	n := len(f.payload)
	signRNG := stream(o.seed, "wire/sign")
	weights := stream(o.seed, "wire/weights")
	rec := newRecorder(wireVerifyWindow, wireBatchWindow)
	prof := newPhaseProfiles()
	var (
		vf                  *core.Verifier
		sign                []float64
		opsVerify, opsBatch bn254.OpCounts
		rejected, offenders int
		rp                  wireReplays
	)
	err := runRounds(o, tr, wireRound, func(round int) error {
		rtr := roundTracer(tr, round)
		sign = append(sign, signPass(f, signRNG, round == 0, rep)...)
		quiesce()

		stop := prof.start(rtr, 1)
		ops := bn254.ReadOpCounts()
		vf = verifyPass(f, rec.op(rtr, 1), rtr, &rp, rep)
		if rtr == nil { // traced passes also count their replays
			opsVerify = bn254.ReadOpCounts().Sub(ops)
		}
		if err := stop(); err != nil {
			return err
		}
		quiesce()

		stop = prof.start(rtr, 2)
		ops = bn254.ReadOpCounts()
		bv := vf.Batch(core.BatchOptions{Workers: 1, ChunkSize: wireWindow, Weights: weights})
		rejected, offenders = batchPass(f, bv, rec.op(rtr, 2), rtr, rep)
		opsBatch = bn254.ReadOpCounts().Sub(ops)
		if err := stop(); err != nil {
			return err
		}
		quiesce()
		return nil
	})
	if err != nil {
		return err
	}
	rec.report(rep, tr != nil)
	rep.outputs["sign_us_p50"] = median(sign)
	forged := 0
	for _, fg := range f.forged {
		if fg {
			forged++
		}
	}
	rep.gate(offenders == forged, "batch pass named %d offenders, stream holds %d forgeries", offenders, forged)
	if tr == nil {
		return nil
	}
	perSig := func(c uint64) float64 { return float64(c) / float64(n) }
	rep.layer("bn254.pairings_per_verify", perSig(opsVerify.Pairings), "count")
	rep.layer("bn254.final_exps_per_verify", perSig(opsVerify.FinalExps), "count")
	rep.layer("bn254.cyc_squares_per_verify", perSig(opsVerify.CycSquares), "count")
	rep.layer("bn254.miller_pairs_per_batch_sig", perSig(opsBatch.Pairings), "count")
	rep.layer("bn254.final_exps_per_batch_sig", perSig(opsBatch.FinalExps), "count")
	rep.layer("core.verifier_cache_misses", float64(vf.CacheLen()), "count")
	rep.layer("batch.rejected_windows", float64(rejected), "count")
	rep.layer("batch.offenders", float64(offenders), "count")
	prof.report(rep)
	wireLayers(f, vf, tr, &rp, rep)
	return nil
}

// signPass signs every message of the stream and returns the per-message
// times; keep stores the signatures as the ones the verify passes check.
func signPass(f *wireFixture, rng io.Reader, keep bool, rep *report) []float64 {
	out := make([]float64, 0, len(f.signed))
	for i := range f.signed {
		t0 := time.Now()
		sig, err := core.Sign(f.params, f.keys[f.signer[i]], f.signed[i], rng)
		if err != nil {
			rep.outcome(false, "sign message %d: %v", i, err)
			continue
		}
		b := sig.Marshal()
		out = append(out, durUs(time.Since(t0)))
		if keep {
			f.sigs[i] = b
		}
		rep.outcome(true, "")
	}
	return out
}

// wireReplays holds the decomposed replays of a traced run: right after a
// traced verification, the verify equation's steps run again on the same
// message, so each replay sees the same host as the span it explains.
type wireReplays struct {
	verify, g1, miller, pair, residual []float64 // us, cached verifications
	qid                                []float64 // us, first contacts
}

// replay times the steps of one verification: fixed-base G1, Miller loop
// and pairing for a cached one (verifyUs is its span), the identity hash
// for a first contact.
func (rp *wireReplays) replay(f *wireFixture, i int, sig *core.Signature, first bool, verifyUs float64) {
	if first {
		t0 := time.Now()
		f.params.QID(f.ids[f.signer[i]])
		rp.qid = append(rp.qid, durUs(time.Since(t0)))
		return
	}
	t0 := time.Now()
	a := new(bn254.G1).ScalarBaseMultAdd(sig.V, new(bn254.G1).Neg(sig.R))
	t1 := time.Now()
	bn254.MillerLoopMulti([]*bn254.G1{a}, []*bn254.G2{sig.S})
	t2 := time.Now()
	bn254.Pair(a, sig.S)
	t3 := time.Now()
	rp.verify = append(rp.verify, verifyUs)
	rp.g1 = append(rp.g1, durUs(t1.Sub(t0)))
	rp.miller = append(rp.miller, durUs(t2.Sub(t1)))
	rp.pair = append(rp.pair, durUs(t3.Sub(t2)))
	rp.residual = append(rp.residual, verifyUs-durUs(t1.Sub(t0))-durUs(t3.Sub(t2)))
}

// verifyPass checks every message from bytes on a fresh verifier, so the
// first message from each signer pays the identity hash and
// e(P_pub, Q_ID), and records each verification in ph. A traced pass also
// replays one valid message in wireReplayEvery into rp. It returns the
// verifier, now warm.
func verifyPass(f *wireFixture, ph *phase, tr *Tracer, rp *wireReplays, rep *report) *core.Verifier {
	vf := core.NewVerifier(f.params)
	seen := make([]bool, len(f.ids))
	ops := make([]op, 0, len(f.payload))
	for i := range f.payload {
		s := f.signer[i]
		start := time.Now()
		pk, perr := core.UnmarshalPublicKey(f.pkBytes[s])
		t1 := time.Since(start)
		sig, serr := core.UnmarshalSignature(f.sigs[i])
		t2 := time.Since(start)
		verr := errors.Join(perr, serr)
		if verr == nil {
			verr = vf.Verify(pk, f.payload[i], sig)
		}
		d := time.Since(start)
		at := ph.since(start)
		ops = append(ops, op{start: at, end: at + d, items: 1})
		rep.outcome(perr == nil && serr == nil && verifyOutcomeOK(f.forged[i], verr),
			"verify message %d (forged %v): %v", i, f.forged[i], verr)
		if tr != nil {
			name := "core.verify"
			if !seen[s] {
				name = "core.verify.first_contact"
			}
			key := strconv.Itoa(i)
			at := start.Sub(tr.epoch)
			id := tr.Record("wire.verify", key, 0, at, at+d)
			tr.Record("core.decode_pk", key, id, at, at+t1)
			tr.Record("core.decode_sig", key, id, at+t1, at+t2)
			tr.Record(name, key, id, at+t2, at+d)
			if i%wireReplayEvery == 0 && !f.forged[i] && verr == nil {
				rp.replay(f, i, sig, !seen[s], durUs(d-t2))
			}
		}
		seen[s] = true
	}
	ph.add(ops)
	rep.gate(vf.CacheLen() == len(f.ids), "verifier caches %d identities after a pass, want %d", vf.CacheLen(), len(f.ids))
	return vf
}

// batchPass runs the stream in flood windows through VerifyMulti, decode
// included, records each window in ph and checks its offenders against its
// forgeries. It returns the rejected windows and the offenders.
func batchPass(f *wireFixture, bv *core.BatchVerifier, ph *phase, tr *Tracer, rep *report) (int, int) {
	n := len(f.payload)
	pks := make([]*core.PublicKey, wireWindow)
	sigs := make([]*core.Signature, wireWindow)
	rejected, offenders := 0, 0
	ops := make([]op, 0, n/wireWindow+1)
	for lo := 0; lo < n; lo += wireWindow {
		hi := min(lo+wireWindow, n)
		start := time.Now()
		var derr error
		for j := lo; j < hi; j++ {
			var perr, serr error
			pks[j-lo], perr = core.UnmarshalPublicKey(f.pkBytes[f.signer[j]])
			sigs[j-lo], serr = core.UnmarshalSignature(f.sigs[j])
			derr = errors.Join(derr, perr, serr)
		}
		tDec := time.Since(start)
		var verr error
		if derr == nil {
			verr = bv.VerifyMulti(pks[:hi-lo], f.payload[lo:hi], sigs[:hi-lo])
		}
		d := time.Since(start)
		at := ph.since(start)
		ops = append(ops, op{start: at, end: at + d, items: hi - lo})
		got := core.BatchOffenders(verr)
		var want []int
		for j := lo; j < hi; j++ {
			if f.forged[j] {
				want = append(want, j-lo)
			}
		}
		structural := derr != nil || (verr != nil && got == nil)
		for j := lo; j < hi; j++ {
			rep.outcome(!structural && slices.Contains(got, j-lo) == f.forged[j],
				"batch window %d message %d (forged %v): %v", lo/wireWindow, j, f.forged[j], errors.Join(derr, verr))
		}
		rep.gate(offendersOK(want, got), "batch window %d: offenders %v, forged %v", lo/wireWindow, got, want)
		if verr != nil {
			rejected++
			offenders += len(got)
		}
		if tr != nil {
			key := strconv.Itoa(lo / wireWindow)
			at := start.Sub(tr.epoch)
			id := tr.Record("batch.window", key, 0, at, at+d)
			tr.Record("batch.decode", key, id, at, at+tDec)
			tr.Record("batch.verify_multi", key, id, at+tDec, at+d)
		}
	}
	ph.add(ops)
	return rejected, offenders
}

// wireLayers derives the per-layer metrics of a traced wire_verify run
// from medians of the recorded spans and of decomposed replays of the
// verify equation's steps on the stream's own signatures. A layer's time
// is reported as its share of the traced median of a cached verification
// from bytes; the times themselves go to the run's outputs.
func wireLayers(f *wireFixture, vf *core.Verifier, tr *Tracer, rp *wireReplays, rep *report) {
	spans := tr.Spans()
	kids := Children(spans, "wire.verify")
	var whole, glue, first []float64
	var windows, decode time.Duration
	for _, s := range spans {
		switch s.Name {
		case "wire.verify":
			if slices.ContainsFunc(kids[s.ID], func(k Span) bool { return k.Name == "core.verify" }) {
				whole = append(whole, durUs(s.Dur()))
				glue = append(glue, durUs(SelfTime(s, kids[s.ID])))
			} else {
				first = append(first, durUs(s.Dur()))
			}
		case "batch.window":
			windows += s.Dur()
		case "batch.decode":
			decode += s.Dur()
		}
	}
	us := map[string]float64{
		"wire.verify":               median(whole),
		"wire.verify.first_contact": median(first),
		"wire.self":                 median(glue),
		"core.decode_pk":            median(spanUs(tr.Named("core.decode_pk"))),
		"core.decode_sig":           median(spanUs(tr.Named("core.decode_sig"))),
		"core.verify":               median(spanUs(tr.Named("core.verify"))),
		"core.verify.first_contact": median(spanUs(tr.Named("core.verify.first_contact"))),
		"batch.verify_multi":        median(spanUs(tr.Named("batch.verify_multi"))),
	}
	rep.layer("batch.decode_share", decode.Seconds()/windows.Seconds(), "share")

	us["bn254.g1_base_mult_add"] = median(rp.g1)
	us["bn254.miller_loop"] = median(rp.miller)
	us["bn254.final_exp"] = median(rp.pair) - us["bn254.miller_loop"]
	us["bn254.hash_to_g2"] = median(rp.qid)
	us["core.verify_residual"] = median(rp.residual)
	rep.outputs["layers_us"] = us

	share := func(name string) float64 { return us[name] / us["wire.verify"] }
	for _, name := range []string{"core.decode_pk", "core.decode_sig", "core.verify", "core.verify_residual",
		"wire.self", "bn254.g1_base_mult_add", "bn254.miller_loop", "bn254.final_exp"} {
		rep.layer(name+"_share", share(name), "share")
	}
	// The identity hash is paid on first contact only.
	rep.layer("bn254.hash_to_g2_share", us["bn254.hash_to_g2"]/us["wire.verify.first_contact"], "share")
	rep.layer("core.first_contact_ratio", us["wire.verify.first_contact"]/us["wire.verify"], "ratio")

	// Allocation counts: exact heap allocations per operation, from
	// MemStats deltas around loops that run nothing else, on the stream's
	// first 256 valid messages.
	var (
		idx     []int
		pks     []*core.PublicKey
		decoded []*core.Signature
	)
	for i := 0; i < len(f.sigs) && len(idx) < 256; i++ {
		if f.forged[i] {
			continue
		}
		pk, perr := core.UnmarshalPublicKey(f.pkBytes[f.signer[i]])
		sig, serr := core.UnmarshalSignature(f.sigs[i])
		if err := errors.Join(perr, serr); err != nil {
			rep.gate(false, "decode message %d: %v", i, err)
			return
		}
		idx, pks, decoded = append(idx, i), append(pks, pk), append(decoded, sig)
	}
	signRNG := stream(0, "wire/replay-sign")
	rep.layer("core.sign_allocs", allocsPer(len(idx), func(k int) {
		_, _ = core.Sign(f.params, f.keys[f.signer[idx[k]]], f.signed[idx[k]], signRNG) // outcome checked in the sign phase
	}), "count")
	rep.layer("core.verify_allocs", allocsPer(len(idx), func(k int) {
		_ = vf.Verify(pks[k], f.payload[idx[k]], decoded[k]) // outcome checked in the verify phase
	}), "count")

	// Reconciliation: the layers of a cached verification from bytes must
	// add up to its traced median.
	sum := us["core.decode_pk"] + us["core.decode_sig"] + us["core.verify"] + us["wire.self"]
	gap := (sum - us["wire.verify"]) / us["wire.verify"]
	rep.layer("recon.verify_gap_share", gap, "share")
	rep.gate(gap <= reconTolerance && gap >= -reconTolerance,
		"verify layers sum to %.1f us, the traced median is %.1f us (gap %.3f, tolerance %.2f)", sum, us["wire.verify"], gap, reconTolerance)
	rep.gate(us["core.verify_residual"] >= -reconTolerance*median(rp.verify),
		"verify replays exceed the verifications they replay by %.1f us (median of %.1f us)", -us["core.verify_residual"], median(rp.verify))
}

// reconTolerance is how far the sum of the per-layer medians may sit from
// the traced end-to-end median, as a share of it. A larger gap means a
// layer is missing from the decomposition.
const reconTolerance = 0.10

// allocsPer runs op n times and returns the heap allocations per call.
func allocsPer(n int, op func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
