package main

import (
	"os"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// progress counts a phase's settled sends: verdicts matched to a send and
// sends that Enqueue refused. Sent minus settled is what is in flight.
type progress struct {
	done    atomic.Int64 // verdicts matched to a send
	refused atomic.Int64
}

func (p *progress) settled() int64 { return p.done.Load() + p.refused.Load() }

func (p *progress) reset() {
	p.done.Store(0)
	p.refused.Store(0)
}

// reserve takes between lo and hi of the window's free slots, given the
// sends so far (sent, shared by every sender) and how many of them have
// settled. It returns how many it took: 0 when fewer than lo are free.
func reserve(sent *atomic.Int64, p *progress, window, lo, hi int64) int64 {
	for {
		s := sent.Load()
		n := min(hi, window-(s-p.settled()))
		if n < lo || n <= 0 {
			return 0
		}
		if sent.CompareAndSwap(s, s+n) {
			return n
		}
	}
}

// progressFileSize is the size of the file that carries a shared
// progress: one page, mapped by the benchmark process, which counts
// verdicts into it, and by the open-loop generator process, which reads it
// to bound what it has in flight.
const progressFileSize = 4096

// newProgressFile makes a progress file in dir and unlinks it at once, so
// nothing is left behind; the open descriptor keeps it alive.
func newProgressFile(dir string) (*os.File, error) {
	f, err := os.CreateTemp(dir, "progress-*")
	if err != nil {
		return nil, err
	}
	os.Remove(f.Name())
	if err := f.Truncate(progressFileSize); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// mapProgress maps f's progress into this process. The mapping outlives
// f's descriptor and lasts as long as the process.
func mapProgress(f *os.File) (*progress, error) {
	mem, err := syscall.Mmap(int(f.Fd()), 0, progressFileSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, err
	}
	return (*progress)(unsafe.Pointer(&mem[0])), nil
}
