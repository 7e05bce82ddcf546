package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// recorder matches verdicts to sends for one phase without tracing. Each
// host is pinned to one connection, the server decodes a connection in
// order, shard queues are FIFO and waves keep per-host order, so a host's
// k-th OnScored call is its k-th message that Enqueue accepted. Offers and
// verdicts arrive on different goroutines (listener vs shard worker); the
// per-host counters are atomics and the refusal list has its own lock,
// taken only when a host has refusals.
type recorder struct {
	base  time.Time
	hosts []hostLog
	// verdictNS is each send's verdict time in ns since base; 0 = none.
	verdictNS []int64
	*progress
	extra atomic.Int64 // verdicts with no send left to match, or a repeat
}

// hostLog is one host's bookkeeping: sends lists the phase's send indices
// of the host's messages in order.
type hostLog struct {
	sends    []int32
	offered  atomic.Int32
	verdicts atomic.Int32
	nRefused atomic.Int32
	mu       sync.Mutex
	refused  []int32 // positions in sends that Enqueue refused, ascending
}

// newRecorder builds a recorder for a phase whose send g goes to host
// hostOf[g]; nHosts bounds the host ids. It counts into prog, which it
// resets; nil gives it a progress of its own.
func newRecorder(hostOf []uint16, nHosts int, prog *progress) *recorder {
	if prog == nil {
		prog = new(progress)
	}
	prog.reset()
	r := &recorder{hosts: make([]hostLog, nHosts), verdictNS: make([]int64, len(hostOf)), progress: prog}
	counts := make([]int, nHosts)
	for _, h := range hostOf {
		counts[h]++
	}
	for h := range r.hosts {
		r.hosts[h].sends = make([]int32, 0, counts[h])
	}
	for g, h := range hostOf {
		r.hosts[h].sends = append(r.hosts[h].sends, int32(g))
	}
	return r
}

// offer records one Enqueue outcome for host (listener goroutine).
func (r *recorder) offer(host int, accepted bool) {
	hl := &r.hosts[host]
	j := hl.offered.Add(1) - 1
	if accepted {
		return
	}
	hl.mu.Lock()
	hl.refused = append(hl.refused, j)
	hl.mu.Unlock()
	hl.nRefused.Add(1)
	r.refused.Add(1)
}

// verdict matches one OnScored call for host to its send (shard worker,
// under the shard lock: O(1) unless the host had refusals).
func (r *recorder) verdict(host int) {
	now := max(int64(time.Since(r.base)), 1) // 0 marks "no verdict"
	hl := &r.hosts[host]
	j := hl.verdicts.Add(1) - 1
	if hl.nRefused.Load() > 0 {
		// The k-th accepted message skips every refused position at or
		// before it. A refusal before position j was recorded before j was
		// enqueued, so the list is complete up to j.
		hl.mu.Lock()
		for _, p := range hl.refused {
			if p <= j {
				j++
			}
		}
		hl.mu.Unlock()
	}
	if int(j) >= len(hl.sends) {
		r.extra.Add(1)
		return
	}
	g := hl.sends[j]
	if r.verdictNS[g] != 0 {
		r.extra.Add(1)
		return
	}
	r.verdictNS[g] = now
	r.done.Add(1)
}

// accepted reports whether the host's pos-th send was accepted by Enqueue.
// Call only after the phase has drained.
func (r *recorder) accepted(host int, pos int32) bool {
	hl := &r.hosts[host]
	for _, p := range hl.refused {
		if p == pos {
			return false
		}
	}
	return true
}
