package main

import (
	"fmt"
	"regexp"
	"strconv"
	"time"

	"nfvpredict/internal/obs"
)

// runTraced is the per-layer run. Three serving passes over the same
// inputs: A as the end-to-end run serves (default shard count and
// nfvmonitor's 1-in-16 tracer; the baseline for the tracing overhead,
// generator lag, allocation and the shard speedup), B the same with one
// shard (the speedup's base), C with the tracer at 1-in-1 sampling and a
// span ring that holds a whole open-loop phase. C's open loop runs at
// 10k msgs/s only: tracing every message at 30k msgs/s overflowed the
// hot shard's queue. Then the offline side with its metrics registries
// attached.
func runTraced(w *workload, seed int64, seconds time.Duration, in *serveInputs) (*result, error) {
	spans := newBenchSpans()
	off := newOffline(w, seed, in, spans, obs.NewRegistry(), datasetReps)
	short := seconds / 5
	traceRates := openRates[:1]
	a, err := servePass(in, passSpec{reps: setupReps, warm: time.Second, peak: short, open: short, rates: openRates}, nil)
	if err != nil {
		return nil, err
	}
	b, err := servePass(in, passSpec{shards: 1, reps: 1, warm: time.Second / 2, peak: short}, nil)
	if err != nil {
		return nil, err
	}
	var templatesNew int
	var stepsBy map[int]float64
	var macs map[int]float64
	ring := int(traceRates[0].rate*short.Seconds()) + 4096
	c, err := servePass(in, passSpec{reps: 1, warm: time.Second, peak: short, open: short, rates: traceRates, spanRing: ring},
		func(st *stack, _ *serveResult) {
			templatesNew = st.mon.Tree().Len() - st.tpl0
			snap := st.reg.Snapshot()
			stepsBy, macs = map[int]float64{}, map[int]float64{}
			for ci, d := range st.b.Detectors {
				stepsBy[ci] = float64(snap.Counters[fmt.Sprintf("cluster%d_lstm_steps_total", ci)])
				mc := d.Model().Config()
				macs[ci] = stepMACs(mc.Vocab, mc.Hidden)
			}
		})
	if err != nil {
		return nil, err
	}
	var bad []string
	for _, p := range [][]*phase{a.phases, b.phases} {
		for _, ph := range p {
			if !ph.verdictsOK() {
				bad = append(bad, fmt.Sprintf("phase %s: %d sent, %d accepted, %d verdicted", ph.name, ph.sent, ph.accepted, ph.verdicted))
			}
		}
	}
	bad = append(bad, checkServe(in, c)...)

	res := &result{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }

	// Generator validity and the runtime, from pass A.
	var lags []float64
	var allocB, gcNS uint64
	var meas int
	for _, ph := range a.phases[1:] {
		lags = append(lags, ph.lags()...)
		allocB += ph.allocB
		gcNS += ph.gcPauseNS
		meas += ph.sent
	}
	put("loadgen.lag_p99_ms", percentile(lags, 0.99), "ms")
	for _, r := range openRates {
		l := a.named(r.name)[0].lags()
		fmt.Printf("loadgen lag at %s: p50 %.4f ms, p99 %.4f ms over %d frames\n", r.name, percentile(l, 0.5), percentile(l, 0.99), len(l))
	}
	// The open-loop latencies other than p50_ms.r10k swing with the shared
	// machine's load far beyond any useful regression bound, so they are
	// reported here, without a bound, from pass A.
	for _, r := range openRates {
		p50, p99, _ := a.latency(r.name)
		put("p99_ms."+r.name, p99, "ms")
		if r.name != "r10k" {
			put("p50_ms."+r.name, p50, "ms")
		}
	}
	put("runtime.alloc_b_per_msg", float64(allocB)/float64(meas), "B/msg")
	put("runtime.gc_pause_ms", float64(gcNS)/1e6, "ms")
	put("bundle.load_ms", percentile(a.loadMS, 0.5), "ms")
	put("ingest.shard_speedup", a.peakRate()/b.peakRate(), "ratio")
	var drops, malformed uint64
	for _, r := range []*serveResult{a, b, c} {
		drops += r.stats.ShardDropped
		malformed += r.stats.Malformed
	}
	put("ingest.shard_drops", float64(drops), "count")
	put("logfmt.malformed", float64(malformed), "count")

	// Stage clocks from the traced pass's open-loop phase.
	var st stageSample
	for _, r := range traceRates {
		st.add(c.named(r.name)[0].spans)
	}
	us := func(xs []float64, q float64) float64 { return percentile(xs, q) / 1e3 }
	put("logfmt.decode_us.p50", us(st.decode, 0.5), "us")
	put("logfmt.decode_us.p99", us(st.decode, 0.99), "us")
	put("ingest.queue_us.p50", us(st.queue, 0.5), "us")
	put("ingest.queue_us.p99", us(st.queue, 0.99), "us")
	put("ingest.wave_wait_us.p99", us(st.batch, 0.99), "us")
	put("sigtree.us.p50", us(st.sigtree, 0.5), "us")
	put("sigtree.us.p99", us(st.sigtree, 0.99), "us")
	put("detect.score_us.p50", us(st.score, 0.5), "us")
	put("detect.score_us.p99", us(st.score, 0.99), "us")
	put("ingest.verdict_us.p99", us(st.verdict, 0.99), "us")
	put("obs.stage_sum_ratio", st.sum/st.total, "ratio")
	base, _, _ := a.latency("r10k")
	traced, _, _ := c.latency("r10k")
	put("obs.trace_overhead_pct", 100*(traced-base)/base, "%")

	// Batching and work per message from the traced pass's peak phase.
	pk := c.named("peak")[0]
	msgs := delta(pk, func(s obs.Snapshot) float64 { return float64(s.Counters["monitor_messages_total"]) })
	batches := delta(pk, func(s obs.Snapshot) float64 { return float64(s.Histograms["monitor_sigtree_learn_seconds"].Count) })
	lanes, waves := 0.0, 0.0
	for name := range pk.snap1.Histograms {
		if lanesRe.MatchString(name) {
			lanes += delta(pk, func(s obs.Snapshot) float64 { return s.Histograms[name].Sum })
			waves += delta(pk, func(s obs.Snapshot) float64 { return float64(s.Histograms[name].Count) })
		}
	}
	put("ingest.msgs_per_batch", msgs/batches, "msgs")
	put("detect.lanes_per_wave", lanes/waves, "lanes")
	var stepMACsSum, steps float64
	for ci, n := range stepsBy {
		stepMACsSum += n * macs[ci]
		steps += n
	}
	perStep := stepMACsSum / steps
	put("nn.flop_per_msg", 2*perStep, "flop/msg")
	put("nn.weight_bytes_per_msg", 8*perStep/(lanes/waves), "B/msg")
	put("sigtree.templates_new", float64(templatesNew), "count")
	put("ingest.anomaly_ratio", float64(c.monStats.Anomalies)/float64(c.monStats.Messages), "ratio")
	put("ingest.warnings", float64(c.monStats.Warnings), "count")
	reportServe(w, &st, c, traceRates)
	for _, r := range []*serveResult{a, b, c} {
		tallyServe(res, r.phases)
	}

	// Offline layers.
	off.round()
	put("pipeline.dataset_s", percentile(off.setup, 0.5), "s")
	snap := off.reg.Snapshot()
	var trainSum, trainMax, tokens float64
	for name, h := range snap.Histograms {
		if m := epochRe.FindStringSubmatch(name); m != nil {
			trainSum += h.Sum
			trainMax = max(trainMax, h.Sum)
			tokens += float64(snap.Counters["cluster"+m[1]+"_lstm_train_tokens_total"])
		}
	}
	put("detect.train_s.sum", trainSum, "s")
	put("detect.train_s.max", trainMax, "s")
	put("nn.train_tokens_per_s", tokens/trainSum, "tokens/s")
	put("pipeline.adaptations", float64(snap.Counters["pipeline_adaptations_total"]), "count")
	windows, far, adapted := 0, 0.0, 0
	for _, cc := range off.cycle.Clusters {
		if cc.Adapted {
			windows += cc.Windows
			far += cc.CandidateFAR
			adapted++
		}
	}
	put("lifecycle.adapt_windows", float64(windows), "windows")
	put("lifecycle.candidate_far", far/float64(max(adapted, 1)), "ratio")

	reportOffline(w, spans, off)
	finish(res, off, append(bad, off.bad...))
	return res, nil
}

var (
	lanesRe = regexp.MustCompile(`^cluster\d+_lstm_batch_lanes$`)
	epochRe = regexp.MustCompile(`^cluster(\d+)_lstm_epoch_seconds$`)
)

func delta(ph *phase, f func(obs.Snapshot) float64) float64 { return f(ph.snap1) - f(ph.snap0) }

// stepMACs is the multiply-accumulates of one scored message on the f64
// engine, from the model shape: each LSTM layer's four gates read its
// input projection and its recurrent weights, then the dense layer maps
// the top hidden state onto the vocabulary. Layer 0's input is one-hot
// plus the gap feature, which the sparse kernel reads as two columns.
func stepMACs(vocab int, hidden []int) float64 {
	in, total := 2, 0
	for _, h := range hidden {
		total += 4 * h * (in + h)
		in = h
	}
	return float64(total + vocab*in)
}

// stageSample collects decision-span stage clocks (ns).
type stageSample struct {
	decode, queue, sigtree, batch, score, verdict []float64
	sum, total                                    float64
}

func (s *stageSample) add(spans []obs.Span) {
	for _, sp := range spans {
		if !sp.Sampled {
			continue
		}
		g := sp.Stages
		s.decode = append(s.decode, float64(g.DecodeNS))
		s.queue = append(s.queue, float64(g.QueueNS))
		s.sigtree = append(s.sigtree, float64(g.SigtreeNS))
		s.batch = append(s.batch, float64(g.BatchNS))
		s.score = append(s.score, float64(g.ScoreNS))
		s.verdict = append(s.verdict, float64(g.VerdictNS))
		s.sum += float64(g.Sum())
		s.total += float64(sp.TotalNS)
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// reportServe prints the traced run's per-layer self time and share.
// Stages are disjoint segments of each message's accept→verdict span; the
// benchmark's own calls nest inside two of them (Enqueue inside queue,
// the OnScored and warning hooks inside verdict) and are subtracted.
func reportServe(w *workload, st *stageSample, c *serveResult, rates []openRate) {
	var hooks [3]time.Duration
	for _, r := range rates {
		ph := c.named(r.name)[0]
		for i, n := range []string{"enqueue", "onScored", "onWarning"} {
			hooks[i] += ph.bench1[n] - ph.bench0[n]
		}
	}
	rows := []struct {
		layer string
		ns    float64
	}{
		{"decode (logfmt)", sum(st.decode)},
		{"queue (ingest shard queue)", sum(st.queue) - float64(hooks[0])},
		{"  enqueue (benchmark ShardSink)", float64(hooks[0])},
		{"sigtree (sigtree)", sum(st.sigtree)},
		{"batch (ingest wave wait)", sum(st.batch)},
		{"score (detect/nn/mat)", sum(st.score)},
		{"verdict (ingest)", sum(st.verdict) - float64(hooks[1]+hooks[2])},
		{"  hooks (benchmark OnScored/onWarning)", float64(hooks[1] + hooks[2])},
	}
	fmt.Printf("traced serve report, %s, open loop at %s (%d spans, stage sum / total %.6f):\n",
		w.name, rates[0].name, len(st.decode), st.sum/st.total)
	fmt.Printf("  %-40s %12s %8s\n", "layer", "self_ms", "share")
	for _, r := range rows {
		fmt.Printf("  %-40s %12.3f %7.2f%%\n", r.layer, r.ns/1e6, 100*r.ns/st.total)
	}
}

// reportOffline prints the offline side's time per public call.
func reportOffline(w *workload, spans *benchSpans, off *offline) {
	fmt.Printf("traced offline report, %s:\n", w.name)
	snap := off.reg.Snapshot()
	var train float64
	for name, h := range snap.Histograms {
		if epochRe.MatchString(name) {
			train += h.Sum
		}
	}
	for _, n := range []string{"pipeline.BuildDataset", "pipeline.Run", "TriggerCycle"} {
		k, d := spans.total(n)
		fmt.Printf("  %-40s %12.3f ms over %d call(s)\n", n, float64(d)/1e6, k)
	}
	_, run := spans.total("pipeline.Run")
	fmt.Printf("  %-40s %12.3f ms (%.1f%% of pipeline.Run, summed over clusters)\n", "  detect/nn training epochs", train*1e3, 100*train*1e9/float64(run))
	fmt.Printf("  %-40s %12s\n", "  lifecycle cycle mode(s)", cycleModes(off))
}

func cycleModes(off *offline) string {
	s := ""
	for _, cc := range off.cycle.Clusters {
		if cc.Adapted {
			s += cc.Mode + "@" + strconv.Itoa(cc.Cluster) + " "
		}
	}
	return s
}
