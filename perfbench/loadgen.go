package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// plan is one phase's sends: send g carries segment message
// (start+g) mod len, and is the pos[g]-th message of its host.
type plan struct {
	seg    *segment
	start  int
	hostOf []uint16
	pos    []int32
	// conn lists each connection's send indices in send order.
	conn [][]int32
	// sentTo is, after the phase, how many of conn[c] went out.
	sentTo []int
}

func newPlan(seg *segment, start, n int, connOfHost []int, nConns int) *plan {
	p := &plan{seg: seg, start: start, hostOf: make([]uint16, n), pos: make([]int32, n),
		conn: make([][]int32, nConns), sentTo: make([]int, nConns)}
	next := make([]int32, len(seg.hosts))
	for g := 0; g < n; g++ {
		h := seg.host[(start+g)%seg.len()]
		p.hostOf[g] = h
		p.pos[g] = next[h]
		next[h]++
		c := connOfHost[h]
		p.conn[c] = append(p.conn[c], int32(g))
	}
	return p
}

func (p *plan) msg(g int) int { return (p.start + g) % p.seg.len() }

// sent reports whether send g went out.
func (p *plan) sent(g int, connOfHost []int) bool {
	c := connOfHost[p.hostOf[g]]
	list := p.conn[c]
	// list is ascending; g went out iff it is among the first sentTo[c].
	return p.sentTo[c] > 0 && int32(g) <= list[p.sentTo[c]-1]
}

// nSent is the number of sends that went out.
func (p *plan) nSent() int {
	n := 0
	for _, k := range p.sentTo {
		n += k
	}
	return n
}

// generator is one sender's connections: one goroutine and one TCP
// connection each (at most nproc), every host pinned to one connection.
// Closed-window phases run it in the benchmark process, since their window
// needs the verdict count; open-loop phases run it in a separate process
// (openLoop), whose sleeps are not tied to the stack's scheduler.
type generator struct {
	conns []net.Conn
}

func dialGenerator(addr string, nConns int) (*generator, error) {
	g := &generator{}
	for i := 0; i < nConns; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			g.close()
			return nil, err
		}
		g.conns = append(g.conns, c)
	}
	return g, nil
}

func (g *generator) close() {
	for _, c := range g.conns {
		c.Close()
	}
}

// maxWrite caps one write's worth of coalesced frames.
const maxWrite = 64 << 10

// holdPoll is how often a sender whose window is full looks again.
const holdPoll = 20 * time.Microsecond

// Above coalesceAbove msgs/s a sender writes at most once per
// coalesceQuantum, so frames due within it share a write (about four per
// connection at 30k msgs/s). Up to that rate every frame gets a write of
// its own. With a write and a wakeup for nearly every frame at 30k msgs/s,
// the generator process and the server's reader, sharing the machine's
// two CPUs with the stack, left it short enough that steady-fleet's shard
// queues overflowed in some runs.
const (
	coalesceAbove   = 10e3
	coalesceQuantum = 250 * time.Microsecond
)

// quantum is the least time between two writes of one sender at rate
// msgs/s.
func quantum(rate float64) time.Duration {
	if rate <= coalesceAbove {
		return 0
	}
	return coalesceQuantum
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK: the kernel may defer a
// thread's timer expiry by its slack (50 µs by default) to merge wakeups.
const prSetTimerSlack = 29

// open sends p on a fixed schedule: send g is due at base + g/rate. Each
// sender sleeps until its next frame is due (and at least a quantum after
// its last write), then writes every frame that is due by then in one
// write. lagNS[g] is how late send g was written. Each sender holds its
// own thread with a 1 ns timer slack, so its sleeps end when asked.
//
// As in the closed window, at most window messages are in flight (sent
// minus settled in prog), so no shard queue can overflow. A stack that
// falls that far behind holds the frames it owes until verdicts free the
// window; latency still runs from each frame's due time, so a hold counts
// in full against the program, and in lagNS. A hold that outlasts the
// schedule by drainLimit is a stalled stack.
func (g *generator) open(p *plan, base time.Time, rate float64, lagNS []int64, prog *progress) error {
	period := 1e9 / rate
	q := quantum(rate)
	deadline := base.Add(time.Duration(float64(len(p.hostOf))*period) + drainLimit)
	var sent, held atomic.Int64
	defer func() {
		if n := held.Load(); n > 0 {
			logf("generator: held frames %d times for a full window at %.0f msgs/s", n, rate)
		}
	}()
	return g.each(p, func(c int, list []int32, buf []byte) (int, error) {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		if _, _, e := syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0); e != 0 {
			return 0, fmt.Errorf("prctl(PR_SET_TIMERSLACK): %w", e)
		}
		i := 0
		var last time.Time
		for i < len(list) {
			due := base.Add(time.Duration(float64(list[i]) * period))
			if next := last.Add(q); next.After(due) {
				due = next
			}
			sleepUntil(due)
			last = time.Now()
			now := int64(last.Sub(base))
			k, size := i, 0
			for k < len(list) && size < maxWrite && int64(float64(list[k])*period) <= now {
				size += len(p.seg.frame(p.msg(int(list[k]))))
				k++
			}
			n := int(reserve(&sent, prog, window, 1, int64(k-i)))
			if n == 0 {
				held.Add(1)
				if last.After(deadline) {
					return i, fmt.Errorf("open-loop phase stalled: %d of %d frames sent on connection %d", i, len(list), c)
				}
				sleepUntil(last.Add(holdPoll))
				continue
			}
			buf = buf[:0]
			for _, s := range list[i : i+n] {
				buf = append(buf, p.seg.frame(p.msg(int(s)))...)
				lagNS[s] = now - int64(float64(s)*period)
			}
			if _, err := g.conns[c].Write(buf); err != nil {
				return i, err
			}
			i += n
		}
		return i, nil
	})
}

// sleepUntil parks the calling thread in nanosleep until t. The runtime's
// own timers round sub-millisecond sleeps up to its millisecond poll
// granularity, which would put up to a millisecond of generator lag on
// every latency; the generator process has nothing else to run, so it can
// afford to hold its threads in the kernel instead.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// closed sends all of p as fast as the stack verdicts it, keeping at most
// window messages in flight (sent minus verdicted or refused). With window
// no larger than a shard queue, no queue can overflow. A stack that has
// not taken the whole plan by deadline has stalled.
func (g *generator) closed(p *plan, rec *recorder, window int, deadline time.Time) error {
	var sent atomic.Int64
	const minChunk, maxChunk = 32, 256
	return g.each(p, func(c int, list []int32, buf []byte) (int, error) {
		i := 0
		for i < len(list) {
			if time.Now().After(deadline) {
				return i, fmt.Errorf("closed-window phase stalled: %d of %d frames sent on connection %d", i, len(list), c)
			}
			left := int64(len(list) - i)
			n := int(reserve(&sent, rec.progress, int64(window), min(minChunk, left), min(maxChunk, left)))
			if n == 0 {
				time.Sleep(holdPoll)
				continue
			}
			buf = buf[:0]
			for _, s := range list[i : i+n] {
				buf = append(buf, p.seg.frame(p.msg(int(s)))...)
			}
			if _, err := g.conns[c].Write(buf); err != nil {
				return i, err
			}
			i += n
		}
		return i, nil
	})
}

// each runs send on every connection's goroutine and waits for all.
func (g *generator) each(p *plan, send func(c int, list []int32, buf []byte) (int, error)) error {
	var wg sync.WaitGroup
	errs := make([]error, len(g.conns))
	for c := range g.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p.sentTo[c], errs[c] = send(c, p.conn[c], make([]byte, 0, maxWrite+1024))
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
