package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/ingest"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/nfvsim"
	"nfvpredict/internal/obs"
)

// Serving phases. The closed window equals the default shard queue bound:
// with at most that many messages in flight, no shard queue can overflow,
// so no phase drops a message by construction: the open-loop phases keep
// the same bound, holding frames while it is reached. A closed-window phase
// sends a fixed number of messages, closedRate per second of its nominal
// length, and takes as long as the stack needs for them: every phase then
// starts at the same trace position whatever the machine's speed, so the
// open-loop phases of every run of a seed serve the same traffic.
const (
	nConns     = 2 // ≤ nproc on the reference box; see README
	window     = ingest.DefaultShardQueue
	closedRate = 60e3
	setupReps  = 15 // stack starts of a traced run's passes, back to back
	drainLimit = 30 * time.Second
)

type openRate struct {
	name string
	rate float64
}

var openRates = []openRate{{"r10k", 10e3}, {"r30k", 30e3}}

// serveInputs is everything a serve pass needs, built before timing starts.
type serveInputs struct {
	seg        *segment
	connOfHost []int
	cursor     int
	bundlePath string
	flapHost   string
	// week is the served-fleet traffic the lifecycle cycle spools.
	week []logfmt.Message
	// gen sends the open-loop phases from a separate process.
	gen *openLoop
}

// prepareServe renders the workload's traffic and checks that the
// serving bundle at bundlePath was trained on the same fleet: trainTrace
// is the trace it was trained on.
func prepareServe(w *workload, seed int64, bundlePath, trainTrace string) (*serveInputs, error) {
	tr, cfg, seg, rng, err := servedTraffic(w, seed)
	if err != nil {
		return nil, err
	}
	if err := checkTrainTrace(trainTrace, tr, cfg); err != nil {
		return nil, err
	}
	in := &serveInputs{seg: seg, connOfHost: connOf(seg, nConns), bundlePath: bundlePath}
	if w.flap {
		in.flapHost = flapHost
	}
	// Runs wrap the segment, so where a phase lands decides its traffic
	// (rollout days, novel templates); a seeded start within the first
	// percent perturbs the interleaving without moving the phases.
	in.cursor = rng.Intn(in.seg.len()/100 + 1)
	in.week = spoolWeek(tr, w.week)
	return in, nil
}

// servedTraffic generates the workload's trace and renders its served
// segment. The open-loop generator process calls it too, so both sides
// hold the same frames. The returned RNG continues the seed's stream.
func servedTraffic(w *workload, seed int64) (*nfvsim.Trace, nfvsim.Config, *segment, *rand.Rand, error) {
	rng := rand.New(rand.NewSource(seed))
	flap, flapAt := "", time.Time{}
	if w.flap {
		flap, flapAt = flapHost, w.from.Add(time.Duration(rng.Intn(60))*time.Minute)
	}
	tr, cfg, err := serveTrace(flap, flapAt)
	if err != nil {
		return nil, cfg, nil, nil, err
	}
	seg, err := render(tr, w.from, w.to)
	return tr, cfg, seg, rng, err
}

// phase is one measured stretch of traffic against a running stack.
type phase struct {
	name                                 string
	open                                 bool
	rate                                 float64
	dur                                  time.Duration
	plan                                 *plan
	rec                                  *recorder
	lagNS                                []int64
	drained                              bool
	sent, accepted, verdicted, malformed int
	// allocB and gcPauseNS are the process's allocation and GC pause
	// while the phase's traffic flowed and drained.
	allocB, gcPauseNS uint64
	// Traced stacks only: the phase's decision spans, registry snapshots
	// around it, and the benchmark's own span totals inside it.
	spans  []obs.Span
	snap0  obs.Snapshot
	snap1  obs.Snapshot
	bench0 map[string]time.Duration
	bench1 map[string]time.Duration
}

// runPhase drives one phase and waits for the stack to drain.
func runPhase(st *stack, in *serveInputs, name string, rate float64, dur time.Duration) (*phase, error) {
	ph := &phase{name: name, open: rate > 0, rate: rate, dur: dur}
	n := int(closedRate * dur.Seconds())
	if ph.open {
		n = int(rate * dur.Seconds())
	}
	ph.plan = newPlan(in.seg, in.cursor, n, in.connOfHost, nConns)
	var prog *progress
	if ph.open {
		prog = in.gen.prog // the generator process bounds its window by it
	}
	ph.rec = newRecorder(ph.plan.hostOf, len(in.seg.hosts), prog)
	malformed0 := st.srv.Stats().Malformed
	if ph.open {
		ph.lagNS = make([]int64, n)
	}
	var seq0 uint64
	if st.spans != nil {
		seq0 = st.tracer.Ring().Total()
		ph.snap0, ph.bench0 = st.reg.Snapshot(), st.spans.totals()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var err error
	if ph.open {
		// The first send is due shortly after the command reaches the
		// generator process.
		ph.rec.base = time.Now().Add(20 * time.Millisecond)
		st.rec.Store(ph.rec)
		err = in.gen.open(st.srv.TCPAddr().String(), ph.plan, rate, ph.rec.base, ph.lagNS)
	} else {
		var gen *generator
		if gen, err = dialGenerator(st.srv.TCPAddr().String(), nConns); err != nil {
			return nil, err
		}
		ph.rec.base = time.Now()
		st.rec.Store(ph.rec)
		err = gen.closed(ph.plan, ph.rec, window, ph.rec.base.Add(drainLimit))
		gen.close()
	}
	if err != nil {
		return nil, fmt.Errorf("phase %s: %w", name, err)
	}
	ph.sent = ph.plan.nSent()
	// Drain: every frame decoded, and every accepted one verdicted.
	deadline := time.Now().Add(drainLimit)
	for {
		ph.malformed = int(st.srv.Stats().Malformed - malformed0)
		if int(ph.rec.done.Load()+ph.rec.refused.Load())+ph.malformed >= ph.sent {
			ph.drained = true
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	runtime.ReadMemStats(&m1)
	ph.allocB = m1.TotalAlloc - m0.TotalAlloc
	ph.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	st.rec.Store(nil)
	if st.spans != nil {
		ph.snap1, ph.bench1 = st.reg.Snapshot(), st.spans.totals()
		for _, sp := range st.tracer.Ring().Query(obs.SpanQuery{Kind: obs.KindDecision}) {
			if sp.Seq > seq0 {
				ph.spans = append(ph.spans, sp)
			}
		}
	}
	ph.verdicted = int(ph.rec.done.Load())
	ph.accepted = ph.sent - int(ph.rec.refused.Load()) - ph.malformed
	// Advance past the furthest message sent, so phases consume
	// consecutive trace stretches.
	last := 0
	for c, k := range ph.plan.sentTo {
		if k > 0 {
			last = max(last, int(ph.plan.conn[c][k-1])+1)
		}
	}
	in.cursor = (in.cursor + last) % in.seg.len()
	return ph, nil
}

// failed counts sends that did not get a verdict: refused, malformed, or
// lost after acceptance.
func (ph *phase) failed() int { return ph.sent - ph.verdicted }

// verdictsOK reports whether every accepted send got exactly one verdict.
func (ph *phase) verdictsOK() bool {
	return ph.drained && ph.verdicted == ph.accepted && ph.rec.extra.Load() == 0
}

// peakRate is a closed-window phase's verdicts per second: its verdicts
// over the time from its start to its last verdict.
func (ph *phase) peakRate() float64 {
	last := int64(0)
	for _, v := range ph.rec.verdictNS {
		last = max(last, v)
	}
	return float64(ph.verdicted) / (float64(last) / 1e9)
}

// latencies returns due→verdict latency (ms) for every send of an
// open-loop phase. A send without a verdict counts as waiting until the
// phase drained, so failures can only push percentiles up.
func (ph *phase) latencies() []float64 {
	period := 1e9 / ph.rate
	end := int64(time.Since(ph.rec.base))
	out := make([]float64, len(ph.rec.verdictNS))
	for g, v := range ph.rec.verdictNS {
		if v == 0 {
			v = end
		}
		out[g] = float64(v-int64(float64(g)*period)) / 1e6
	}
	return out
}

func (ph *phase) lags() []float64 {
	out := make([]float64, len(ph.lagNS))
	for g, l := range ph.lagNS {
		out[g] = float64(l) / 1e6
	}
	return out
}

// serveResult collects one pass over a stack.
type serveResult struct {
	setup    []float64 // s, one per stack start
	loadMS   []float64
	phases   []*phase
	warnings []detect.Warning
	// warnCalls counts onWarning callbacks: one per warning.
	warnCalls int64
	heapMiB   float64
	stats     ingest.Stats
	monStats  ingest.MonitorStats
}

// passSpec picks a pass's phases; durations scale with --seconds.
type passSpec struct {
	shards   int
	spanRing int
	reps     int // stack starts; the last one serves
	// setupEach times that many more stack starts (each stopped at once)
	// after every round's between and GC.
	setupEach int
	warm      time.Duration
	// rounds repeats peak then each open-loop rate; between, when set,
	// runs after every round (followed by a forced GC), so slow drifts in
	// the machine's speed spread over every metric instead of one.
	rounds  int
	peak    time.Duration
	open    time.Duration // per open-loop rate
	rates   []openRate
	between func(round int)
	heap    bool
}

func servePass(in *serveInputs, spec passSpec, keep func(*stack, *serveResult)) (*serveResult, error) {
	res := &serveResult{}
	sc := stackConfig{bundlePath: in.bundlePath, year: in.seg.year, shards: spec.shards,
		hosts: in.seg.hosts, spanRing: spec.spanRing}
	timedStart := func() (*stack, error) {
		s, d, err := startStack(sc)
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, d.Seconds())
		res.loadMS = append(res.loadMS, float64(s.loadDur)/1e6)
		return s, nil
	}
	var st *stack
	for i := 0; i < spec.reps; i++ {
		s, err := timedStart()
		if err != nil {
			return nil, err
		}
		if i < spec.reps-1 {
			s.stop()
			continue
		}
		st = s
	}
	defer func() {
		if st != nil {
			st.stop()
		}
	}()
	ph, err := runPhase(st, in, "warm", 0, spec.warm)
	if err != nil {
		return nil, err
	}
	res.phases = append(res.phases, ph)
	for round := 0; round < max(spec.rounds, 1); round++ {
		if ph, err = runPhase(st, in, "peak", 0, spec.peak); err != nil {
			return nil, err
		}
		res.phases = append(res.phases, ph)
		if spec.open > 0 {
			for _, r := range spec.rates {
				if ph, err = runPhase(st, in, r.name, r.rate, spec.open); err != nil {
					return nil, err
				}
				res.phases = append(res.phases, ph)
			}
		}
		if spec.between != nil {
			spec.between(round)
			runtime.GC()
		}
		for i := 0; i < spec.setupEach; i++ {
			s, err := timedStart()
			if err != nil {
				return nil, err
			}
			s.stop()
		}
	}
	res.warnings = st.mon.Warnings()
	res.warnCalls = st.warns.Load()
	res.stats = st.srv.Stats()
	res.monStats = st.mon.Stats()
	if keep != nil {
		keep(st, res)
	}
	if spec.heap {
		// Live heap the stack holds: forced-GC heap with it up, minus the
		// same once it is torn down (the benchmark's own inputs and
		// bookkeeping are live in both readings).
		var up, down runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&up)
		st.stop()
		st = nil
		runtime.GC()
		runtime.ReadMemStats(&down)
		res.heapMiB = (float64(up.HeapAlloc) - float64(down.HeapAlloc)) / (1 << 20)
	} else {
		st.stop()
		st = nil
	}
	return res, nil
}

// named returns the pass's phases with that name, one per round.
func (r *serveResult) named(name string) []*phase {
	var out []*phase
	for _, ph := range r.phases {
		if ph.name == name {
			out = append(out, ph)
		}
	}
	return out
}

// peakRate is the median closed-window rate over the rounds.
func (r *serveResult) peakRate() float64 {
	var rates []float64
	for _, ph := range r.named("peak") {
		rates = append(rates, ph.peakRate())
	}
	return percentile(rates, 0.5)
}

// latency returns an open-loop rate's p50 and p99, each taken per
// latencyWindow of due time and reported as the median over the windows
// of every round, with the number of windows.
func (r *serveResult) latency(rate string) (p50, p99 float64, windows int) {
	var p50s, p99s []float64
	for _, ph := range r.named(rate) {
		lat, size := ph.latencies(), int(ph.rate*latencyWindow.Seconds())
		p50s = append(p50s, windowPercentiles(lat, size, 0.5)...)
		p99s = append(p99s, windowPercentiles(lat, size, 0.99)...)
	}
	return percentile(p50s, 0.5), percentile(p99s, 0.5), len(p99s)
}

// checkServe is the serving correctness check: every accepted message got
// exactly one verdict, no phase lost a message (each keeps at most a shard
// queue's worth in flight), and the warnings (host, time, size) equal a
// single-shard reference replay of the accepted sequence through the
// public synchronous API.
func checkServe(in *serveInputs, r *serveResult) []string {
	var bad []string
	for _, ph := range r.phases {
		if !ph.verdictsOK() {
			bad = append(bad, fmt.Sprintf("phase %s: %d sent, %d accepted, %d verdicted, %d extra, drained=%v",
				ph.name, ph.sent, ph.accepted, ph.verdicted, ph.rec.extra.Load(), ph.drained))
		}
		if ph.failed() != 0 {
			bad = append(bad, fmt.Sprintf("phase %s: lost %d messages within the window", ph.name, ph.failed()))
		}
	}
	if r.warnCalls != int64(len(r.warnings)) {
		bad = append(bad, fmt.Sprintf("%d onWarning callbacks for %d warnings", r.warnCalls, len(r.warnings)))
	}
	ref, err := referenceWarnings(in, r.phases)
	if err != nil {
		return append(bad, "reference replay: "+err.Error())
	}
	if d := warningDiff(r.warnings, ref); d != "" {
		bad = append(bad, "warnings differ from the single-shard reference: "+d)
	}
	return bad
}

// referenceWarnings replays every accepted message, in send order,
// through fresh single-shard monitors' HandleMessage: one monitor per
// connection's hosts, replayed side by side. A host's verdicts depend only
// on its own messages (templates first seen while serving all score as
// the model's "other" class), so splitting hosts changes no warning.
func referenceWarnings(in *serveInputs, phases []*phase) ([]detect.Warning, error) {
	out := make([][]detect.Warning, nConns)
	errs := make([]error, nConns)
	var wg sync.WaitGroup
	for c := 0; c < nConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c], errs[c] = replayConn(in, phases, c)
		}(c)
	}
	wg.Wait()
	var all []detect.Warning
	for c := range out {
		if errs[c] != nil {
			return nil, errs[c]
		}
		all = append(all, out[c]...)
	}
	return all, nil
}

func replayConn(in *serveInputs, phases []*phase, conn int) ([]detect.Warning, error) {
	b, err := bundle.LoadFile(in.bundlePath)
	if err != nil {
		return nil, err
	}
	mcfg := ingest.DefaultMonitorConfig()
	mcfg.Threshold = b.Threshold
	mon := ingest.NewMonitorWithResolver(mcfg, b.Tree, b.DetectorFor, nil)
	for _, ph := range phases {
		p := ph.plan
		for g, h := range p.hostOf {
			if in.connOfHost[h] != conn || !p.sent(g, in.connOfHost) || !ph.rec.accepted(int(h), p.pos[g]) {
				continue
			}
			msg, err := in.seg.parse(p.msg(g))
			if err != nil {
				continue // counted as malformed by the server too
			}
			mon.HandleMessage(msg)
		}
	}
	return mon.Warnings(), nil
}

// warningDiff compares two warning multisets; "" when equal.
func warningDiff(got, want []detect.Warning) string {
	key := func(w detect.Warning) string { return fmt.Sprintf("%s|%d|%d", w.VPE, w.Time.UnixNano(), w.Size) }
	count := make(map[string]int)
	for _, w := range want {
		count[key(w)]++
	}
	for _, w := range got {
		count[key(w)]--
	}
	var diff []string
	for k, c := range count {
		if c != 0 {
			diff = append(diff, fmt.Sprintf("%s:%+d", k, -c))
		}
	}
	if len(diff) == 0 {
		return ""
	}
	sort.Strings(diff)
	if len(diff) > 5 {
		diff = append(diff[:5], "…")
	}
	return fmt.Sprintf("served %d, reference %d (%v)", len(got), len(want), diff)
}
