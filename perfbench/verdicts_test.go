package main

import (
	"sync"
	"testing"

	"nfvpredict/internal/nfvsim"
)

// hostOf for a phase of 7 sends over two hosts: host 0 gets sends
// 0,2,3,5 (positions 0..3), host 1 gets sends 1,4,6.
var testHostOf = []uint16{0, 1, 0, 0, 1, 0, 1}

func TestRecorderMatchesInOrder(t *testing.T) {
	r := newRecorder(testHostOf, 2, nil)
	for _, h := range testHostOf {
		r.offer(int(h), true)
	}
	for _, h := range testHostOf {
		r.verdict(int(h))
	}
	if r.done.Load() != 7 || r.extra.Load() != 0 {
		t.Fatalf("done %d extra %d, want 7 and 0", r.done.Load(), r.extra.Load())
	}
	for g, v := range r.verdictNS {
		if v == 0 {
			t.Fatalf("send %d has no verdict", g)
		}
	}
}

func TestRecorderSkipsRefusedEnqueue(t *testing.T) {
	r := newRecorder(testHostOf, 2, nil)
	// Host 0's second and third messages (sends 2 and 3) and host 1's first
	// (send 1) are refused by a full shard queue.
	refused := map[int]bool{1: true, 2: true, 3: true}
	next := []int32{0, 0}
	for g, h := range testHostOf {
		r.offer(int(h), !refused[g])
		if r.accepted(int(h), next[h]) == refused[g] {
			t.Fatalf("send %d: accepted() disagrees with the offer", g)
		}
		next[h]++
	}
	// Verdicts arrive only for accepted sends, per host in order.
	for g, h := range testHostOf {
		if !refused[g] {
			r.verdict(int(h))
		}
	}
	if r.refused.Load() != 3 || r.done.Load() != 4 || r.extra.Load() != 0 {
		t.Fatalf("refused %d done %d extra %d, want 3, 4, 0", r.refused.Load(), r.done.Load(), r.extra.Load())
	}
	for g := range testHostOf {
		if got := r.verdictNS[g] != 0; got == refused[g] {
			t.Fatalf("send %d: verdict recorded %v, refused %v", g, got, refused[g])
		}
	}
}

func TestRecorderCountsExtraVerdicts(t *testing.T) {
	r := newRecorder(testHostOf, 2, nil)
	for i := 0; i < 4; i++ {
		r.verdict(1) // host 1 has only three sends
	}
	if r.done.Load() != 3 || r.extra.Load() != 1 {
		t.Fatalf("done %d extra %d, want 3 and 1", r.done.Load(), r.extra.Load())
	}
}

// Offers and verdicts run on different goroutines in the stack (listener
// vs shard worker); run under -race.
func TestRecorderConcurrentHosts(t *testing.T) {
	const hosts, per = 8, 500
	hostOf := make([]uint16, hosts*per)
	for g := range hostOf {
		hostOf[g] = uint16(g % hosts)
	}
	r := newRecorder(hostOf, hosts, nil)
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ok := i%7 != 3
				r.offer(h, ok)
				if ok {
					r.verdict(h)
				}
			}
		}(h)
	}
	wg.Wait()
	var wantRefused int64
	for i := 0; i < per; i++ {
		if i%7 == 3 {
			wantRefused += hosts
		}
	}
	if r.refused.Load() != wantRefused || r.done.Load()+wantRefused != hosts*per || r.extra.Load() != 0 {
		t.Fatalf("refused %d done %d extra %d", r.refused.Load(), r.done.Load(), r.extra.Load())
	}
	for g := range hostOf {
		pos := g / hosts
		if got := r.verdictNS[g] != 0; got != (pos%7 != 3) {
			t.Fatalf("send %d (pos %d): verdict %v", g, pos, got)
		}
	}
}

func TestPlanPinsHostsAndOrders(t *testing.T) {
	seg := &segment{host: []uint16{0, 1, 2, 0, 1}, hosts: []string{"a", "b", "c"}}
	connOfHost := []int{0, 1, 0}
	p := newPlan(seg, 3, 6, connOfHost, 2)
	// Sends wrap around the segment: messages 3,4,0,1,2,3.
	wantHost := []uint16{0, 1, 0, 1, 2, 0}
	wantPos := []int32{0, 0, 1, 1, 0, 2}
	for g := range wantHost {
		if p.hostOf[g] != wantHost[g] || p.pos[g] != wantPos[g] {
			t.Fatalf("send %d: host %d pos %d, want %d %d", g, p.hostOf[g], p.pos[g], wantHost[g], wantPos[g])
		}
		if c := connOfHost[p.hostOf[g]]; !contains(p.conn[c], int32(g)) {
			t.Fatalf("send %d missing from connection %d", g, c)
		}
	}
	p.sentTo = []int{2, 1} // conn 0 sent 0 and 2; conn 1 sent 1
	for g, want := range []bool{true, true, true, false, false, false} {
		if p.sent(g, connOfHost) != want {
			t.Fatalf("sent(%d) = %v, want %v", g, !want, want)
		}
	}
	if p.nSent() != 3 {
		t.Fatalf("nSent = %d, want 3", p.nSent())
	}
}

func contains(xs []int32, x int32) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func TestQuantumOnlyAboveLightLoad(t *testing.T) {
	if q := quantum(10e3); q != 0 {
		t.Fatalf("quantum at 10k msgs/s = %v, want 0 (a write per frame)", q)
	}
	if q := quantum(30e3); q != coalesceQuantum {
		t.Fatalf("quantum at 30k msgs/s = %v, want %v", q, coalesceQuantum)
	}
}

func TestRenderRefusesTwoYears(t *testing.T) {
	tr := &nfvsim.Trace{}
	if _, err := render(tr, day(2017, 12, 1), day(2018, 1, 1)); err != nil {
		t.Fatalf("December alone: %v", err)
	}
	if _, err := render(tr, day(2017, 12, 1), day(2018, 2, 1)); err == nil {
		t.Fatal("a range into the next year should be refused")
	}
}
