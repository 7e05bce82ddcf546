package main

import (
	"os"
	"sync"
	"sync/atomic"
	"testing"
)

func TestReserveBoundsTheWindow(t *testing.T) {
	var sent atomic.Int64
	p := new(progress)
	if n := reserve(&sent, p, 10, 1, 8); n != 8 {
		t.Fatalf("first reserve took %d, want 8", n)
	}
	if n := reserve(&sent, p, 10, 1, 8); n != 2 {
		t.Fatalf("second reserve took %d, want the 2 free slots", n)
	}
	if n := reserve(&sent, p, 10, 1, 8); n != 0 {
		t.Fatalf("full window gave %d slots", n)
	}
	p.done.Add(3)
	p.refused.Add(1)
	if n := reserve(&sent, p, 10, 5, 8); n != 0 {
		t.Fatalf("4 free slots met a minimum of 5: took %d", n)
	}
	if n := reserve(&sent, p, 10, 1, 8); n != 4 {
		t.Fatalf("after 4 settled took %d, want 4", n)
	}
}

// Two senders share one window; run under -race.
func TestReserveConcurrentSenders(t *testing.T) {
	const window, total = 16, 20000
	var sent, inFlight, worst atomic.Int64
	p := new(progress)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for left := int64(total / 2); left > 0; {
				n := reserve(&sent, p, window, 1, min(3, left))
				if n == 0 {
					continue
				}
				if f := inFlight.Add(n); f > worst.Load() {
					worst.Store(f)
				}
				inFlight.Add(-n)
				p.done.Add(n)
				left -= n
			}
		}()
	}
	wg.Wait()
	if sent.Load() != total || p.settled() != total || worst.Load() > window {
		t.Fatalf("sent %d settled %d worst in flight %d (window %d)", sent.Load(), p.settled(), worst.Load(), window)
	}
}

// The generator process sees the benchmark process's counts through the
// progress file; two mappings in one process stand in for the two.
func TestProgressFileIsShared(t *testing.T) {
	f, err := newProgressFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := os.Stat(f.Name()); !os.IsNotExist(err) {
		t.Fatalf("progress file left on disk: %v", err)
	}
	a, err := mapProgress(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mapProgress(f)
	if err != nil {
		t.Fatal(err)
	}
	a.done.Add(5)
	a.refused.Add(2)
	if b.settled() != 7 {
		t.Fatalf("second mapping settled %d, want 7", b.settled())
	}
	b.reset()
	if a.settled() != 0 {
		t.Fatalf("reset through one mapping left %d in the other", a.settled())
	}
}
