package main

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/detect"
	"nfvpredict/internal/features"
	"nfvpredict/internal/ingest"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/obs"
)

// stack is the serving path wired the way cmd/nfvmonitor wires it with
// default flags: bundle → sharded monitor (GOMAXPROCS shards, f64, default
// queue and batch, 30 s watchdog, metrics registry, decision-trace ring,
// 1-in-16 stage-clock tracer over a 512-span ring, accept_verdict_latency
// SLO at 250 ms) → TCP server routing straight into the shard queues, with
// the same tracer and the shard_drop_ratio SLO. Only the benchmark's hooks
// differ: a ShardSink wrapper that sees every Enqueue outcome and an
// OnScored hook that matches verdicts to sends. nfvmonitor's degradation
// controller is left out: it is a timer in the command's own app, not a
// public constructor, and a healthy run never leaves its normal mode.
type stack struct {
	b       *bundle.Bundle
	mon     *ingest.Monitor
	srv     *ingest.Server
	reg     *obs.Registry
	tracer  *obs.Tracer
	hostID  map[string]int
	rec     atomic.Pointer[recorder]
	spans   *benchSpans // nil unless 1-in-1 traced
	warns   atomic.Int64
	loadDur time.Duration
	tpl0    int // bundle templates at load
}

// cmd/nfvmonitor's default -span-buffer and -span-sample.
const (
	defaultSpanRing   = 512
	defaultSpanSample = 16
)

type stackConfig struct {
	bundlePath string
	year       int
	shards     int
	hosts      []string
	// spanRing > 0 replaces the default tracer with 1-in-1 sampling over
	// a ring of that size, and turns on the benchmark's own spans.
	spanRing int
}

// startStack builds and starts a stack and returns once the listener
// accepts a connection; the returned duration is the set-up time.
func startStack(sc stackConfig) (*stack, time.Duration, error) {
	t0 := time.Now()
	st := &stack{reg: obs.NewRegistry(), hostID: make(map[string]int, len(sc.hosts))}
	for i, h := range sc.hosts {
		st.hostID[h] = i
	}
	st.tracer = obs.NewTracer(obs.NewSpanRing(defaultSpanRing), 1, defaultSpanSample)
	if sc.spanRing > 0 {
		st.spans = newBenchSpans()
		st.tracer = obs.NewTracer(obs.NewSpanRing(sc.spanRing), 1, 1)
	}
	st.tracer.Export(st.reg)
	slos := obs.NewSLOSet()
	slos.Export(st.reg)
	latencySLO := slos.Add(obs.SLOConfig{Name: "accept_verdict_latency", Target: 0.99})
	dropSLO := slos.Add(obs.SLOConfig{Name: "shard_drop_ratio", Target: 0.99})
	end := st.spans.begin("bundle.Load")
	b, err := bundle.LoadFile(sc.bundlePath)
	end()
	st.loadDur = time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	st.b = b
	st.tpl0 = b.Tree.Len()
	for ci, d := range b.Detectors {
		d.SetPrecision(detect.PrecisionF64)
		if st.spans != nil {
			d.SetMetrics(st.reg, fmt.Sprintf("cluster%d_", ci))
		}
	}
	mcfg := ingest.DefaultMonitorConfig()
	mcfg.Threshold = b.Threshold
	mcfg.Metrics = st.reg
	mcfg.Traces = obs.NewTraceRing(256)
	mcfg.Tracer = st.tracer
	mcfg.LatencySLO = latencySLO
	mcfg.LatencyBound = 250 * time.Millisecond
	mcfg.ClusterOf = func(host string) int {
		if ci, ok := b.Assign[host]; ok {
			return ci
		}
		return 0
	}
	mcfg.Precision = detect.PrecisionF64
	mcfg.Shards = sc.shards
	if mcfg.Shards <= 0 {
		mcfg.Shards = runtime.GOMAXPROCS(0)
	}
	mcfg.Watchdog = 30 * time.Second
	mcfg.OnScored = st.onScored
	st.mon = ingest.NewMonitorWithResolver(mcfg, b.Tree, b.DetectorFor, st.onWarning)

	scfg := ingest.DefaultServerConfig()
	scfg.UDPAddr, scfg.TCPAddr, scfg.Year = "", "127.0.0.1:0", sc.year
	scfg.Metrics = st.reg
	scfg.Sharded = st
	scfg.Tracer = st.tracer
	scfg.DropSLO = dropSLO
	st.srv, err = ingest.NewServer(scfg, nil)
	if err != nil {
		return nil, 0, err
	}
	st.mon.Start()
	st.srv.Start(nil)
	c, err := net.Dial("tcp", st.srv.TCPAddr().String())
	if err != nil {
		st.stop()
		return nil, 0, err
	}
	c.Close()
	return st, time.Since(t0), nil
}

func (st *stack) stop() {
	st.srv.Close()
	st.mon.Stop()
}

// Enqueue makes the stack the server's ShardSink: it forwards to the
// monitor and records every outcome, so verdict matching survives a
// refused Enqueue.
func (st *stack) Enqueue(msg logfmt.Message) bool {
	end := st.spans.begin("enqueue")
	ok := st.mon.Enqueue(msg)
	end()
	if rec := st.rec.Load(); rec != nil {
		if h, known := st.hostID[msg.Host]; known {
			rec.offer(h, ok)
		}
	}
	return ok
}

func (st *stack) onScored(host string, _ int, _ features.Event, _ float64, _, _ bool) {
	end := st.spans.begin("onScored")
	if rec := st.rec.Load(); rec != nil {
		if h, ok := st.hostID[host]; ok {
			rec.verdict(h)
		}
	}
	end()
}

func (st *stack) onWarning(detect.Warning) {
	end := st.spans.begin("onWarning")
	st.warns.Add(1)
	end()
}
