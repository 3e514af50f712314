package main

import (
	"encoding/binary"
	"fmt"
	"syscall"
	"time"
)

// The reference box is a 2-vCPU guest on a shared host. Its clock is steady
// (a register-bound loop repeats within 3 %), but its share of the host's
// caches and memory bandwidth changes from one second to the next with what
// the neighbours do, and the program — 82 MB of sketches, tens of MB
// allocated per batch — is bound by memory: identical code read up to 1.8×
// apart on runs minutes from each other, which no bound the contract allows
// survives.
//
// So the benchmark measures the host while it measures the program. A probe
// is a fixed piece of memory-bound work that uses none of the repository's
// code: read-modify-writes at random addresses of a 64 MB buffer, then a
// sequential read of the next 4 MB of it; about 1.6 ms. The steady phase
// takes one every 20 ms, between operations; each set-up is bracketed by two
// bursts of them. A span is reported in reference time: its duration ×
// probeRef ÷ the median of the five probes around it. What the host takes
// from the program it takes from the probe next to it too, so the ratio
// repeats where the wall clock does not (README.md has the spreads). A
// change to the program moves its spans and not the probe, so it shows in
// full.
const (
	probeBytes  = 64 << 20 // larger than any cache this process gets to keep
	probeRandom = 1 << 15  // read-modify-writes at random addresses
	probeStream = 4 << 20  // bytes read in order
	probeEvery  = 20 * time.Millisecond
	probeBurst  = 15
	probeWindow = 2 // probes on either side of the one a span started after

	// probeRef is about what a probe takes on the reference box at its
	// quietest: reference time is wall time there.
	probeRef = 1.6e-3
)

// hostSpeed takes the probes of one run.
type hostSpeed struct {
	buf    []byte
	x      uint64
	off    int // where the next probe's sequential read starts
	sink   uint64
	last   time.Time
	points []float64 // seconds per probe, in the order taken
}

// newHostSpeed maps the probe's memory outside the Go heap: inside, 64 MB of
// live data would halve the collector's frequency for the program under
// test.
func newHostSpeed() (*hostSpeed, error) {
	buf, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map the probe buffer: %w", err)
	}
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1 // fault every page in now, not inside a probe
	}
	return &hostSpeed{buf: buf, x: 88172645463325252}, nil
}

func (h *hostSpeed) close() {
	_ = syscall.Munmap(h.buf) // the process is about to exit; nothing to do about a failure
}

func (h *hostSpeed) probe() {
	start := time.Now()
	x := h.x
	for i := 0; i < probeRandom; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.buf[x&(probeBytes-1)] += byte(x)
	}
	// The sequential read moves on through the buffer, so that no probe
	// finds in cache what the one before it read: a probe's time must not
	// depend on how much of the cache the program left alone in between.
	var s uint64
	for chunk := h.buf[h.off : h.off+probeStream]; len(chunk) >= 8; chunk = chunk[8:] {
		s += binary.LittleEndian.Uint64(chunk)
	}
	h.off = (h.off + probeStream) % probeBytes
	h.x, h.sink = x, h.sink+s
	h.last = time.Now()
	h.points = append(h.points, h.last.Sub(start).Seconds())
}

// tick takes a probe when the last one is probeEvery old.
func (h *hostSpeed) tick() {
	if time.Since(h.last) >= probeEvery {
		h.probe()
	}
}

// burst takes probeBurst probes and returns the index of the first.
func (h *hostSpeed) burst() int {
	first := len(h.points)
	for i := 0; i < probeBurst; i++ {
		h.probe()
	}
	return first
}

// at is the index of the latest probe: what a span that starts now records.
func (h *hostSpeed) at() int { return len(h.points) - 1 }

// factor turns wall time measured between probes lo and hi (inclusive) into
// reference time.
func (h *hostSpeed) factor(lo, hi int) float64 {
	return probeRef / median(h.points[max(0, lo):min(len(h.points), hi+1)])
}

// reference scales each span by the probes around the one it started after.
func (h *hostSpeed) reference(spans []float64, at []int) []float64 {
	out := make([]float64, len(spans))
	for i, d := range spans {
		out[i] = d * h.factor(at[i]-probeWindow, at[i]+probeWindow)
	}
	return out
}
