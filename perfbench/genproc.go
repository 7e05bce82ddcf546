package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// openLoop is the open-loop generator process: the benchmark binary run
// with --generator. It renders the same segment from the same seed, then
// serves one command per open-loop phase on stdin ("open <addr> <start>
// <n> <rate> <base unix ns>"), sending the phase's plan on schedule from
// its own connections and answering with the per-send lag on stdout. Due
// times cross the process boundary as wall-clock instants. The phase's
// verdict count crosses it through prog, a page both processes map, so
// the generator can keep at most a shard queue's worth of messages in
// flight, as the closed window does.
type openLoop struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	prog *progress
}

func startOpenLoop(w *workload, seed int64) (*openLoop, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := newProgressFile(filepath.Dir(exe))
	if err != nil {
		return nil, err
	}
	defer f.Close() // the mappings keep the page
	prog, err := mapProgress(f)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--generator", "--workload", w.name, "--seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	cmd.ExtraFiles = []*os.File{f} // descriptor 3 in the generator
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	o := &openLoop{cmd: cmd, in: in, out: bufio.NewReader(out), prog: prog}
	if line, err := o.out.ReadString('\n'); err != nil || line != "ready\n" {
		o.close()
		return nil, fmt.Errorf("generator process did not start: %q %v", line, err)
	}
	return o, nil
}

// close ends the generator process and waits for it.
func (o *openLoop) close() error {
	o.in.Close()
	return o.cmd.Wait()
}

// open runs one open-loop phase of p against addr, due from base, and
// fills lagNS with how late each send was written.
func (o *openLoop) open(addr string, p *plan, rate float64, base time.Time, lagNS []int64) error {
	if _, err := fmt.Fprintf(o.in, "open %s %d %d %g %d\n", addr, p.start, len(p.hostOf), rate, base.UnixNano()); err != nil {
		return err
	}
	line, err := o.out.ReadString('\n')
	if err != nil {
		return fmt.Errorf("generator process: %w", err)
	}
	f := strings.Fields(line)
	if len(f) != len(lagNS)+1 || f[0] != "lags" {
		return fmt.Errorf("generator process: %.200s", line)
	}
	for g := range lagNS {
		if lagNS[g], err = strconv.ParseInt(f[g+1], 10, 64); err != nil {
			return err
		}
	}
	for c := range p.conn {
		p.sentTo[c] = len(p.conn[c])
	}
	return nil
}

// runGenerator is the generator process's main loop.
func runGenerator(w *workload, seed int64) error {
	_, _, seg, _, err := servedTraffic(w, seed)
	if err != nil {
		return err
	}
	connOfHost := connOf(seg, nConns)
	prog, err := mapProgress(os.NewFile(3, "progress"))
	if err != nil {
		return err
	}
	runtime.GC()
	fmt.Println("ready")
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		var addr string
		var start, n int
		var rate float64
		var baseNS int64
		if _, err := fmt.Sscanf(sc.Text(), "open %s %d %d %g %d", &addr, &start, &n, &rate, &baseNS); err != nil {
			return fmt.Errorf("generator command %q: %w", sc.Text(), err)
		}
		now := time.Now()
		base := now.Add(time.Duration(baseNS - now.UnixNano()))
		p := newPlan(seg, start, n, connOfHost, nConns)
		lag := make([]int64, n)
		gen, err := dialGenerator(addr, nConns)
		if err != nil {
			return err
		}
		err = gen.open(p, base, rate, lag, prog)
		gen.close()
		if err != nil {
			return err
		}
		var b strings.Builder
		b.WriteString("lags")
		for _, l := range lag {
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(l, 10))
		}
		fmt.Println(b.String())
	}
	return sc.Err()
}
