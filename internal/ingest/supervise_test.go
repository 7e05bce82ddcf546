package ingest

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nfvpredict/internal/faultinject"
	"nfvpredict/internal/features"
	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/resilience"
)

// superviseMonitor builds an async monitor wired to a private fault
// registry, trained on the shared corpus.
func superviseMonitor(t *testing.T, shards int, watchdog time.Duration) (*Monitor, *faultinject.Registry) {
	t.Helper()
	tree, det := trainMonitorDetector(t)
	reg := faultinject.NewRegistry()
	cfg := DefaultMonitorConfig()
	cfg.Threshold = 4
	cfg.Shards = shards
	cfg.Watchdog = watchdog
	cfg.Faults = reg
	return NewMonitor(cfg, tree, det, nil), reg
}

func superviseMsg(host, text string, at time.Time) logfmt.Message {
	return logfmt.Message{Time: at, Host: host, Facility: logfmt.FacDaemon, Severity: logfmt.Info, Tag: "rpd", Text: text}
}

// feedUntil enqueues messages (retrying full queues) until cond holds or
// the deadline lapses.
func feedUntil(t *testing.T, mon *Monitor, cond func() bool, deadline time.Duration) {
	t.Helper()
	base := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)
	texts := []string{
		"bgp keepalive exchanged with peer 10.0.0.1 hold 90",
		"interface statistics poll completed for ge-0/0/1 in 12 ms",
	}
	limit := time.After(deadline)
	for i := 0; ; i++ {
		if cond() {
			return
		}
		select {
		case <-limit:
			t.Fatalf("condition not reached; stats %+v", mon.Stats())
		default:
		}
		msg := superviseMsg("vpe01", texts[i%len(texts)], base.Add(time.Duration(i)*10*time.Second))
		if !mon.Enqueue(msg) {
			time.Sleep(time.Millisecond)
		}
	}
}

// TestSupervisedWorkerRecoversFromPanic injects a worker-loop panic and a
// scoring panic and checks the workers restart and keep scoring — the
// monitor never stops consuming.
func TestSupervisedWorkerRecoversFromPanic(t *testing.T) {
	mon, faults := superviseMonitor(t, 1, 0)
	mon.Start()
	defer mon.Stop()

	// Two worker-loop panics (before dequeue: no message loss), then clean.
	if err := faults.Arm("shard.worker", faultinject.Arming{Mode: faultinject.ModePanic, Count: 2}); err != nil {
		t.Fatal(err)
	}
	feedUntil(t, mon, func() bool { return mon.Stats().WorkerRestarts >= 2 }, 10*time.Second)

	// A scoring panic after dequeue: the batch is lost but counted, and
	// processing continues.
	before := mon.Stats().Messages
	if err := faults.Arm("shard.score", faultinject.Arming{Mode: faultinject.ModePanic, Count: 1}); err != nil {
		t.Fatal(err)
	}
	feedUntil(t, mon, func() bool {
		st := mon.Stats()
		return st.ShardPanics >= 1 && st.Messages > before
	}, 10*time.Second)
	if st := mon.Stats(); st.WorkerRestarts < 3 {
		t.Fatalf("scoring panic did not restart the worker: %+v", st)
	}
}

// TestWatchdogKicksStuckWorker wedges a worker with an injected slow batch
// and checks the watchdog abandons it: a replacement worker drains the
// queue while the stuck one is still sleeping.
func TestWatchdogKicksStuckWorker(t *testing.T) {
	mon, faults := superviseMonitor(t, 1, 50*time.Millisecond)
	mon.Start()
	defer mon.Stop()

	// First batch wedges for 2s — far past the 50ms watchdog deadline.
	if err := faults.Arm("shard.score", faultinject.Arming{Mode: faultinject.ModeSlow, Delay: 2 * time.Second, Count: 1}); err != nil {
		t.Fatal(err)
	}
	feedUntil(t, mon, func() bool {
		st := mon.Stats()
		return st.WatchdogKicks >= 1 && st.Messages >= 4
	}, 10*time.Second)
}

// TestWatchdogClockSkewFault is the chaos drill for the watchdog itself,
// stepped by hand on a frozen clock so no sleep races the scheduler. It
// pins the kick rule (DESIGN.md §13): a stalled worker younger than the
// deadline is left alone; a skewed clock alone never kicks a worker whose
// heartbeat keeps advancing; skew does bring forward the kick of a worker
// that has not moved for a tick; and the kick is harmless — every message
// is still scored once.
func TestWatchdogClockSkewFault(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	faults := faultinject.NewRegistry()
	entered := make(chan struct{})
	release := make(chan struct{})
	var gateOpen atomic.Bool
	cfg := DefaultMonitorConfig()
	cfg.Threshold = 4
	cfg.Shards = 1
	cfg.MaxBatch = 1 // one message per worker loop turn
	cfg.Watchdog = time.Minute
	cfg.Faults = faults
	// The gate wedges the worker inside its batch until the test lets it
	// go: a worker that cannot beat, on demand. Closing release frees
	// every worker for good, including on a failed assertion.
	cfg.OnScored = func(string, int, features.Event, float64, bool, bool) {
		if !gateOpen.Load() {
			select {
			case entered <- struct{}{}:
			case <-release:
			}
			<-release
		}
	}
	openGate := sync.OnceFunc(func() {
		gateOpen.Store(true)
		close(release)
	})
	mon := NewMonitor(cfg, tree, det, nil)
	frozen := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)
	mon.now = func() time.Time { return frozen }
	mon.wdStep = make(chan chan struct{})
	step := func() {
		done := make(chan struct{})
		mon.wdStep <- done
		<-done
	}
	kicks := func(want uint64, when string) {
		t.Helper()
		if got := mon.Stats().WatchdogKicks; got != want {
			t.Fatalf("%s: %d watchdog kicks, want %d", when, got, want)
		}
	}

	const n = 8
	for i := 0; i < n; i++ {
		if !mon.Enqueue(superviseMsg("vpe01", "bgp keepalive exchanged with peer 10.0.0.1 hold 90", frozen.Add(time.Duration(i)*time.Second))) {
			t.Fatal("queue refused a message")
		}
	}
	mon.Start()
	defer mon.Stop()
	defer openGate()
	<-entered // the worker is wedged in message 1, the queue still holds work

	step()
	step()
	kicks(0, "stalled but younger than the deadline")

	if err := faults.Arm("heartbeat.skew", faultinject.Arming{Mode: faultinject.ModeSkew, Skew: time.Hour}); err != nil {
		t.Fatal(err)
	}
	release <- struct{}{} // message 1 done: the worker beats and wedges in message 2
	<-entered
	step()
	kicks(0, "skewed clock, advancing heartbeat")

	step()
	kicks(1, "skewed clock, stalled heartbeat")

	// Let both the wedged worker and its replacement run freely: the
	// abandoned one finishes message 2 and retires, the replacement drains.
	faults.Disarm("heartbeat.skew")
	openGate()
	deadline := time.After(10 * time.Second)
	for mon.Stats().Messages < n || len(mon.shards[0].queue) > 0 {
		select {
		case <-deadline:
			t.Fatalf("queue not drained after the kick; stats %+v", mon.Stats())
		case <-time.After(time.Millisecond):
		}
	}
	mon.Stop()
	if st := mon.Stats(); st.Messages != n || st.ShardPanics != 0 {
		t.Fatalf("after the kick: %+v, want %d messages and no panics", st, n)
	}
	kicks(1, "after drain")
}

// TestShedScoringMode pins the shed-scoring contract: messages are counted
// and templates learned, but nothing is scored until the mode lifts.
func TestShedScoringMode(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	cfg := DefaultMonitorConfig()
	cfg.Threshold = 4
	mon := NewMonitor(cfg, tree, det, nil)

	base := time.Date(2018, 5, 2, 0, 0, 0, 0, time.UTC)
	mon.SetDegrade(resilience.ModeShedScoring)
	if got := mon.DegradeMode(); got != resilience.ModeShedScoring {
		t.Fatalf("mode = %v", got)
	}
	tplsBefore := tree.Len()
	for i := 0; i < 8; i++ {
		mon.HandleMessage(superviseMsg("vpe09", "never seen template while shedding scores", base.Add(time.Duration(i)*time.Second)))
	}
	st := mon.Stats()
	if st.Messages != 8 || st.ShedMessages != 8 {
		t.Fatalf("shed accounting: %+v", st)
	}
	if st.Anomalies != 0 {
		t.Fatalf("scored while shedding: %+v", st)
	}
	if mon.hasHost("vpe09") {
		t.Fatal("host state created while shedding scoring")
	}
	if tree.Len() <= tplsBefore {
		t.Fatal("template learning stopped while shedding scoring")
	}

	// Lifting the mode resumes scoring.
	mon.SetDegrade(resilience.ModeNormal)
	mon.HandleMessage(superviseMsg("vpe09", "bgp keepalive exchanged with peer 10.0.0.3 hold 90", base.Add(time.Minute)))
	if !mon.hasHost("vpe09") {
		t.Fatal("scoring did not resume after shed mode lifted")
	}
	if st := mon.Stats(); st.DegradeMode != "normal" {
		t.Fatalf("stats mode = %q", st.DegradeMode)
	}
}

// TestQueueFrac pins the overload signal the degradation controller reads.
func TestQueueFrac(t *testing.T) {
	tree, det := trainMonitorDetector(t)
	cfg := DefaultMonitorConfig()
	cfg.ShardQueue = 4
	mon := NewMonitor(cfg, tree, det, nil)
	if f := mon.QueueFrac(); f != 0 {
		t.Fatalf("empty queue frac = %v", f)
	}
	base := time.Date(2018, 5, 3, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		mon.Enqueue(superviseMsg("vpe01", "x", base))
	}
	if f := mon.QueueFrac(); f != 0.75 {
		t.Fatalf("queue frac = %v, want 0.75", f)
	}
}
