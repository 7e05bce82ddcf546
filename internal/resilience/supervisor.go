package resilience

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Heartbeat is a lock-free liveness stamp a worker beats on every unit of
// progress and a watchdog reads to detect a wedged worker. It keeps two
// things: when the last beat was (for the age check) and how many beats
// there have been (for the progress check, which no clock jump can fake or
// hide). The zero value reads as "never beat".
type Heartbeat struct {
	ns atomic.Int64
	n  atomic.Uint64
}

// BeatAt stamps the heartbeat with the time t on the worker's clock.
func (h *Heartbeat) BeatAt(t time.Time) {
	h.ns.Store(t.UnixNano())
	h.n.Add(1)
}

// Count returns how many times the heartbeat has beaten (0 means never) —
// watchdogs compare counts across ticks to tell a stalled worker from a
// progressing one.
func (h *Heartbeat) Count() uint64 { return h.n.Load() }

// Age returns how long ago the last beat was, relative to now. A heartbeat
// that never beat reports a very large age — an unstarted worker with
// pending work is exactly what a watchdog should flag.
func (h *Heartbeat) Age(now time.Time) time.Duration {
	ns := h.ns.Load()
	if ns == 0 {
		return time.Duration(1<<63 - 1)
	}
	return now.Sub(time.Unix(0, ns))
}

// Supervisor keeps one worker function alive: it runs fn on its own
// goroutine, recovers panics, and restarts with jittered exponential
// backoff until Stop. fn receives the stop channel and must return when it
// closes; any other return (or a panic) is an abnormal exit and triggers a
// restart. This is the wrapper around shard workers and the adaptation
// loop: a panicking worker costs a restart and a counter increment, never
// the process.
type Supervisor struct {
	// Name labels restart events.
	Name string
	// Run is the supervised body. It must honor stop.
	Run func(stop <-chan struct{})
	// Backoff paces restarts; nil gets NewBackoff defaults (1ms→1s, +50%
	// jitter, clock-seeded).
	Backoff *Backoff
	// OnRestart, when set, observes each restart with the recovered panic
	// value ("" for a non-panic abnormal return). It runs on the
	// supervisor goroutine; keep it cheap.
	OnRestart func(name, cause string)

	mu       sync.Mutex
	running  bool
	stop     chan struct{}
	done     chan struct{}
	restarts atomic.Uint64
}

// Start launches the supervised worker; idempotent while running.
func (s *Supervisor) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return
	}
	s.running = true
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	if s.Backoff == nil {
		s.Backoff = NewBackoff(0, 0, 0.5, 0)
	}
	go s.loop(s.stop, s.done)
}

// Stop signals the worker and waits for it to exit. Idempotent.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return
	}
	s.running = false
	stop, done := s.stop, s.done
	s.mu.Unlock()
	close(stop)
	<-done
}

// Restarts returns how many times the worker has been restarted.
func (s *Supervisor) Restarts() uint64 { return s.restarts.Load() }

func (s *Supervisor) loop(stop chan struct{}, done chan struct{}) {
	defer close(done)
	for {
		cause := s.runOnce(stop)
		select {
		case <-stop:
			return
		default:
		}
		s.restarts.Add(1)
		if s.OnRestart != nil {
			s.OnRestart(s.Name, cause)
		}
		t := time.NewTimer(s.Backoff.Next())
		select {
		case <-t.C:
		case <-stop:
			t.Stop()
			return
		}
		t.Stop()
	}
}

// runOnce runs the body once, converting a panic into a restart cause.
func (s *Supervisor) runOnce(stop <-chan struct{}) (cause string) {
	defer func() {
		if r := recover(); r != nil {
			cause = fmt.Sprint(r)
		}
	}()
	s.Run(stop)
	return ""
}
