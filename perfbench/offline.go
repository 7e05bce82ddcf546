package main

import (
	"fmt"
	"strings"
	"time"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/ingest"
	"nfvpredict/internal/lifecycle"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/nfvsim"
	"nfvpredict/internal/obs"
	"nfvpredict/internal/pipeline"
	"nfvpredict/internal/resilience"
)

// datasetReps is how many times a traced run builds the dataset; an
// end-to-end run spreads its builds over its rounds instead (see main.go).
const datasetReps = 9

// offline is the retrain side of a run: the walk-forward analysis
// nfvpredict runs, and one lifecycle cycle as nfvmonitor -adapt runs it.
type offline struct {
	in    *serveInputs
	seed  int64
	spans *benchSpans
	reg   *obs.Registry // pipeline and lifecycle metrics (traced runs)
	tr    *nfvsim.Trace
	cfg   nfvsim.Config
	ds    *pipeline.Dataset

	setup     []float64 // s per pipeline.BuildDataset
	analysisS []float64 // s per pipeline.Run
	adaptS    []float64 // s per TriggerCycle
	f         float64
	cycle     lifecycle.CycleResult
	ops       int
	fails     int
	bad       []string
}

func (o *offline) fail(format string, args ...any) {
	o.fails++
	o.bad = append(o.bad, fmt.Sprintf(format, args...))
}

// newOffline generates the trace of the fixed small fleet
// (nfvsim.TestConfig: 6 vPEs, 4 months; update in month 2 unless the
// workload has none) and builds its analysis dataset reps times.
func newOffline(w *workload, seed int64, in *serveInputs, spans *benchSpans, reg *obs.Registry, reps int) *offline {
	o := &offline{in: in, seed: seed, spans: spans, reg: reg, cfg: nfvsim.TestConfig()}
	if !w.update {
		o.cfg.UpdateMonth = -1
	}
	d, err := nfvsim.New(o.cfg)
	if err == nil {
		o.tr, err = d.Generate()
	}
	if err != nil {
		o.ops++
		o.fail("offline fleet: %v", err)
		return o
	}
	o.buildDataset(reps)
	return o
}

// buildDataset builds the analysis dataset reps times, timing each build.
func (o *offline) buildDataset(reps int) {
	if o.tr == nil {
		return
	}
	for i := 0; i < reps; i++ {
		end := o.spans.begin("pipeline.BuildDataset")
		t0 := time.Now()
		o.ds = pipeline.BuildDataset(o.tr, o.cfg.Start, o.cfg.Months)
		o.setup = append(o.setup, time.Since(t0).Seconds())
		end()
	}
}

// round runs the analysis, then one adaptation cycle.
func (o *offline) round() {
	o.analyze()
	o.cycleOnce()
}

// analyze runs the walk-forward analysis with the workload seed as the
// LSTM seed.
func (o *offline) analyze() {
	if o.ds == nil {
		return
	}
	pc := pipeline.DefaultConfig()
	pc.LSTM.Seed = o.seed
	pc.Metrics = o.reg
	end := o.spans.begin("pipeline.Run")
	t0 := time.Now()
	res, err := pipeline.Run(o.ds, pc)
	o.analysisS = append(o.analysisS, time.Since(t0).Seconds())
	end()
	o.ops++
	if err != nil {
		o.fail("pipeline.Run: %v", err)
	} else {
		o.f = res.Best.F
	}
	logf("offline: analysis %.2fs", o.analysisS[len(o.analysisS)-1])
}

// cycleOnce runs one forced adaptation cycle of the serving bundle on a
// spooled week of the served fleet.
func (o *offline) cycleOnce() {
	if o.ds == nil {
		return
	}
	o.ops++
	if err := o.adapt(); err != nil {
		o.fail("lifecycle cycle: %v", err)
	}
	if len(o.adaptS) > 0 {
		logf("offline: adapt %.2fs", o.adaptS[len(o.adaptS)-1])
	}
}

// adapt spools the served fleet's week through a single-shard monitor
// feeding a fresh lifecycle manager, then times one forced cycle.
func (o *offline) adapt() error {
	b, err := bundle.LoadFile(o.in.bundlePath)
	if err != nil {
		return err
	}
	ms := lifecycle.ModelSetFromBundle(b)
	lcfg := lifecycle.DefaultConfig()
	lcfg.Interval = 0
	lcfg.Metrics = o.reg
	lm := lifecycle.New(lcfg, ms)
	mcfg := ingest.DefaultMonitorConfig()
	mcfg.Threshold = ms.Threshold
	mcfg.ClusterOf = ms.ClusterOf()
	mcfg.OnScored = lm.Observe
	mon := ingest.NewMonitorWithResolver(mcfg, b.Tree, ms.Resolver(), nil)
	lm.Attach(mon)
	for _, m := range o.in.week {
		mon.HandleMessage(m)
	}
	end := o.spans.begin("TriggerCycle")
	t0 := time.Now()
	o.cycle = lm.TriggerCycle(true)
	o.adaptS = append(o.adaptS, time.Since(t0).Seconds())
	end()
	var errs []string
	adapted := 0
	for _, cc := range o.cycle.Clusters {
		if cc.Err != nil {
			errs = append(errs, fmt.Sprintf("cluster %d: %v", cc.Cluster, cc.Err))
		}
		if cc.Adapted {
			adapted++
		}
	}
	if o.cycle.Panicked || o.cycle.Skipped || o.cycle.Aborted {
		errs = append(errs, fmt.Sprintf("cycle did not complete: %+v", o.cycle))
	}
	if st := lm.BreakerStatus(); st.State != resilience.BreakerClosed {
		errs = append(errs, "breaker "+st.StateName)
	}
	if adapted == 0 {
		errs = append(errs, "no cluster had enough spooled windows to adapt")
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return nil
}

// spoolWeek picks the week the lifecycle cycle adapts on.
func spoolWeek(tr *nfvsim.Trace, from time.Time) []logfmt.Message {
	to := from.Add(7 * 24 * time.Hour)
	var out []logfmt.Message
	for _, m := range tr.Messages {
		if !m.Time.Before(from) && m.Time.Before(to) {
			out = append(out, m)
		}
	}
	return out
}
