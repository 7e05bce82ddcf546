// Command perfbench is the repository's benchmark: socket-to-verdict
// serving of the production model through the stack cmd/nfvmonitor runs,
// plus the offline walk-forward analysis and one lifecycle adaptation
// cycle. See README.md for the workloads, metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// workload is one traffic mix. Every workload serves its traffic over TCP
// and runs the offline analysis, so every run reports every metric.
type workload struct {
	name, why string
	// from/to bound the served months of the paper-scale fleet.
	from, to time.Time
	// flap adds a flapping vPE to the served traffic.
	flap bool
	// update gives the offline fleet a system-update month.
	update bool
	// week starts the served-fleet week the lifecycle cycle spools.
	week time.Time
}

func day(y int, m time.Month, d int) time.Time { return time.Date(y, m, d, 0, 0, 0, 0, time.UTC) }

var workloads = []*workload{
	{
		name: "steady-fleet",
		why:  "pre-update months: templates known, so sigtree only matches and batched LSTM scoring dominates; 38 interleaved hosts fill the waves",
		from: day(2017, 1, 1), to: day(2017, 12, 1),
		week: day(2017, 6, 1),
	},
	{
		name: "update-storm",
		why:  "update rollout month plus a flapping vPE: sigtree learns, warnings fire often, one hot host shrinks waves and loads one shard",
		from: day(2017, 12, 1), to: day(2018, 1, 1),
		flap: true, update: true,
		week: day(2017, 12, 18),
	},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var start = time.Now()

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %6.1fs: "+format+"\n", append([]any{time.Since(start).Seconds()}, args...)...)
}

func main() {
	name := flag.String("workload", "", "workload to run: steady-fleet or update-storm")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "seconds of measured serving traffic")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	generator := flag.Bool("generator", false, "run as the open-loop generator process (started by the benchmark itself)")
	bundlePath := flag.String("bundle", "", "serving bundle trained by cmd/nfvtrain on -train-trace (run.sh passes it)")
	trainTrace := flag.String("train-trace", "", "the trace the serving bundle was trained on: cmd/loggen's default fleet, months 0–1")
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || (!*generator && (*bundlePath == "" || *trainTrace == "")) {
		flag.Usage()
		os.Exit(2)
	}
	if *generator {
		if err := runGenerator(w, *seed); err != nil {
			logf("generator: %v", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(w, *seed, *bundlePath, *trainTrace, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("%-28s %14.6g ratio (failed %d of %d attempted)\n", "fail_ratio",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	out, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one workload. Inputs are generated before anything is
// timed.
func run(w *workload, seed int64, bundlePath, trainTrace string, seconds time.Duration, traced bool) (*result, error) {
	logf("workload %s seed %d: generating inputs", w.name, seed)
	in, err := prepareServe(w, seed, bundlePath, trainTrace)
	if err != nil {
		return nil, err
	}
	logf("served segment: %d messages over %d hosts on %d connections, start %d, flapping %q",
		in.seg.len(), len(in.seg.hosts), nConns, in.cursor, in.flapHost)
	for c := 0; c < nConns; c++ {
		var hosts []string
		for h, hc := range in.connOfHost {
			if hc == c {
				hosts = append(hosts, in.seg.hosts[h])
			}
		}
		logf("connection %d pins %d hosts: %v", c, len(hosts), hosts)
	}
	if in.gen, err = startOpenLoop(w, seed); err != nil {
		return nil, err
	}
	defer in.gen.close()
	runtime.GC() // the generated trace is garbage from here on
	if traced {
		return runTraced(w, seed, seconds, in)
	}
	return runEndToEnd(w, seed, seconds, in)
}

// rounds is how many times an end-to-end run repeats its serving phases.
// The adaptation cycle runs after every round and the analysis after
// every other one. Every time metric is a median over its repeats: on a
// shared machine, where whole runs go slow or fast as other tenants come
// and go, the median of each run agreed across runs better than its
// fastest repeats did.
const rounds = 5

// An end-to-end run times its set-up once before serving (that stack
// serves) and three times after every round, so that the median of
// setup_s samples the machine over the whole run, not only over the half
// second before serving.
const (
	setupFirst    = 1 // stack starts and dataset builds before serving
	setupPerRound = 3 // stack starts and dataset builds after each round
)

func runEndToEnd(w *workload, seed int64, seconds time.Duration, in *serveInputs) (*result, error) {
	off := newOffline(w, seed, in, nil, nil, setupFirst)
	per := seconds / rounds
	spec := passSpec{reps: setupFirst, setupEach: setupPerRound, warm: time.Second, rounds: rounds,
		peak: per * 4 / 10, open: per * 3 / 10, rates: openRates, heap: true,
		between: func(r int) {
			if r%2 == 0 {
				off.analyze()
			}
			off.cycleOnce()
			runtime.GC()
			off.buildDataset(setupPerRound)
		}}
	sr, err := servePass(in, spec, nil)
	if err != nil {
		return nil, err
	}
	logf("serving done; replaying the reference")
	bad := append(checkServe(in, sr), off.bad...)
	logf("reference done")
	res := &result{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	put("setup_s", percentile(sr.setup, 0.5)+percentile(off.setup, 0.5), "s")
	put("peak_msgs_per_s", sr.peakRate(), "msgs/s")
	var peaks []string
	for _, ph := range sr.named("peak") {
		peaks = append(peaks, fmt.Sprintf("%.0f", ph.peakRate()))
	}
	logf("peak per round: %v msgs/s", peaks)
	for _, r := range openRates {
		p50, p99, n := sr.latency(r.name)
		var meds []string
		for _, ph := range sr.named(r.name) {
			meds = append(meds, fmt.Sprintf("%.3f", percentile(ph.latencies(), 0.5)))
		}
		logf("%s: %d windows of %s over %d rounds; median per round %v ms", r.name, n, latencyWindow, rounds, meds)
		if r.name == "r10k" {
			put("p50_ms.r10k", p50, "ms")
		}
		// Ungated: printed here, reported by the traced run (see README).
		fmt.Printf("%-28s %14.6g ms (ungated)\n", "p99_ms."+r.name, p99)
		if r.name != "r10k" {
			fmt.Printf("%-28s %14.6g ms (ungated)\n", "p50_ms."+r.name, p50)
		}
	}
	put("heap_mb", sr.heapMiB, "MiB")
	put("analysis_s", percentile(off.analysisS, 0.5), "s")
	put("analysis_f", off.f, "F")
	put("adapt_s", percentile(off.adaptS, 0.5), "s")
	tallyServe(res, sr.phases)
	finish(res, off, bad)
	return res, nil
}

// tallyServe counts every sent message as attempted and every refused,
// malformed or unverdicted one as failed.
func tallyServe(res *result, phases []*phase) {
	for _, ph := range phases {
		res.Attempted += ph.sent
		res.Failed += ph.failed()
	}
}

// finish adds the offline operations to the tally and settles
// correctness: any failed check fails the run.
func finish(res *result, off *offline, bad []string) {
	res.Attempted += off.ops
	res.Failed += off.fails
	res.Correct = len(bad) == 0
	for _, b := range bad {
		logf("CHECK FAILED: %s", b)
	}
}
