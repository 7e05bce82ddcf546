package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"nfvpredict/internal/logfmt"
	"nfvpredict/internal/nfvsim"
)

// The served fleet is the paper-scale deployment (nfvsim.DefaultConfig:
// 38 vPEs, 4 roles, 18 months from October 2016, system update rolling out
// over the first two weeks of month 14). Its seed is fixed: run.sh trains
// the serving bundle with cmd/loggen and cmd/nfvtrain on months 0–1 once
// per build of those commands, and training costs about a minute, far too
// much to repeat per workload seed. The workload seed instead picks where
// near the start of the served months a run begins, the flapping vPE's
// phase (update-storm), and the offline LSTM seed.
const (
	trainMonths = 2
	// flapMessages and flapEvery shape update-storm's flapping vPE: a
	// 6-message omen burst every hour is ~9% of the fleet's traffic, six
	// times any other host's share, and its shard still keeps up at the
	// 30k msgs/s load point.
	flapMessages = 6
	flapEvery    = time.Hour
	flapHost     = "vpe11"
)

// segment is the served slice of a trace, rendered as RFC 6587 frames.
type segment struct {
	// frames holds every message as "<len> <RFC 3164 line>"; frame i is
	// data[off[i]:off[i+1]].
	data []byte
	off  []int
	// host is each message's index into hosts.
	host  []uint16
	hosts []string
	// year resolves the frames' RFC 3164 timestamps, which carry none;
	// a segment never spans two calendar years.
	year int
}

func (s *segment) len() int           { return len(s.host) }
func (s *segment) frame(i int) []byte { return s.data[s.off[i]:s.off[i+1]] }
func (s *segment) line(i int) []byte  { f := s.frame(i); return f[bytes.IndexByte(f, ' ')+1:] }

// serveTrace generates the served fleet's trace. flap, when non-empty,
// adds update-storm's flapping vPE from flapAt to the end of the horizon;
// injections render from their own RNG, so the rest of the trace is the
// same with or without it.
func serveTrace(flap string, flapAt time.Time) (*nfvsim.Trace, nfvsim.Config, error) {
	cfg := nfvsim.DefaultConfig()
	if flap != "" {
		cfg.Injections = []nfvsim.Injection{{
			At:       flapAt,
			Kind:     nfvsim.InjectBurst,
			VPEs:     []string{flap},
			Messages: flapMessages,
			Repeat:   int(cfg.End().Sub(flapAt)/flapEvery) + 1,
			Every:    flapEvery,
		}}
	}
	d, err := nfvsim.New(cfg)
	if err != nil {
		return nil, cfg, err
	}
	tr, err := d.Generate()
	return tr, cfg, err
}

// render turns the trace messages in [from, to) into frames. The frames
// carry no year, so the range must lie in one calendar year.
func render(tr *nfvsim.Trace, from, to time.Time) (*segment, error) {
	year := from.Year()
	if to.Add(-time.Nanosecond).Year() != year {
		return nil, fmt.Errorf("served range %s–%s spans two years; RFC 3164 frames carry none", from.Format(time.DateOnly), to.Format(time.DateOnly))
	}
	lo := sort.Search(len(tr.Messages), func(i int) bool { return !tr.Messages[i].Time.Before(from) })
	hi := sort.Search(len(tr.Messages), func(i int) bool { return !tr.Messages[i].Time.Before(to) })
	s := &segment{year: year, off: make([]int, 1, hi-lo+1), host: make([]uint16, 0, hi-lo)}
	ids := make(map[string]uint16)
	for _, h := range tr.VPENames {
		ids[h] = uint16(len(s.hosts))
		s.hosts = append(s.hosts, h)
	}
	s.data = make([]byte, 0, (hi-lo)*112)
	for i := lo; i < hi; i++ {
		m := &tr.Messages[i]
		id, ok := ids[m.Host]
		if !ok {
			continue // pPE hosts: the served fleet has none
		}
		line := m.Format3164()
		s.data = strconv.AppendInt(s.data, int64(len(line)), 10)
		s.data = append(s.data, ' ')
		s.data = append(s.data, line...)
		s.off = append(s.off, len(s.data))
		s.host = append(s.host, id)
	}
	return s, nil
}

// parse decodes a frame exactly as the ingest server does.
func (s *segment) parse(i int) (logfmt.Message, error) {
	return logfmt.Parse3164Bytes(s.line(i), s.year)
}

// connOf pins every host to one of n connections, balancing the
// segment's messages: hosts in descending volume each go to the
// connection carrying the fewest so far. The pinning depends only on the
// segment, so it is the same for every seed of a workload.
func connOf(s *segment, n int) []int {
	count := make([]int, len(s.hosts))
	for _, h := range s.host {
		count[h]++
	}
	order := make([]int, len(s.hosts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return count[order[a]] > count[order[b]] })
	load := make([]int, n)
	out := make([]int, len(s.hosts))
	for _, h := range order {
		c := 0
		for k := range load {
			if load[k] < load[c] {
				c = k
			}
		}
		out[h] = c
		load[c] += count[h]
	}
	return out
}

// checkTrainTrace verifies that the trace the serving bundle was trained
// on (cmd/loggen's default fleet, cut to its first trainMonths) is,
// byte for byte, those months of the trace the benchmark serves from.
func checkTrainTrace(path string, tr *nfvsim.Trace, cfg nfvsim.Config) error {
	end := cfg.Start.AddDate(0, trainMonths, 0)
	n := sort.Search(len(tr.Messages), func(i int) bool { return !tr.Messages[i].Time.Before(end) })
	h := sha256.New()
	w := logfmt.NewWriter(h)
	for i := range tr.Messages[:n] {
		if err := w.Write(&tr.Messages[i]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	hf := sha256.New()
	if _, err := io.Copy(hf, f); err != nil {
		return err
	}
	if !bytes.Equal(h.Sum(nil), hf.Sum(nil)) {
		return fmt.Errorf("training trace %s is not months 0–%d of the served fleet (nfvsim.DefaultConfig)", path, trainMonths-1)
	}
	return nil
}
