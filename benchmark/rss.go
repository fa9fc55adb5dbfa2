package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"time"
)

// rssInterval is how often the sampler reads the resident set.
const rssInterval = 5 * time.Millisecond

// rssSampler tracks the process's resident set while ops run: a goroutine
// reads it every rssInterval and keeps the maximum since the last take.
type rssSampler struct {
	mu   sync.Mutex
	peak int64

	quit chan struct{}
	done chan struct{}
}

func startRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	rss := residentBytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	if rss > s.peak {
		s.peak = rss
	}
}

// take returns the peak resident set, in MB, since the previous take (or
// the start), including a sample taken now.
func (s *rssSampler) take() float64 {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	peak := s.peak
	s.peak = 0
	return float64(peak) / 1e6
}

// stop ends the sampler and waits for its goroutine.
func (s *rssSampler) stop() {
	close(s.quit)
	<-s.done
}

// residentBytes reads the resident set size from /proc/self/statm (0 when
// it cannot be read).
func residentBytes() int64 {
	blob, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := bytes.Fields(blob)
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
