package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// rtDelta is the Go runtime's allocation and GC activity over a span.
type rtDelta struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU                              float64 // estimated GC CPU seconds
}

func (a rtDelta) add(b rtDelta) rtDelta {
	return rtDelta{a.allocBytes + b.allocBytes, a.allocObjects + b.allocObjects, a.gcCycles + b.gcCycles, a.gcCPU + b.gcCPU}
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

// readRuntime is the runtime's cumulative counters; subtract two
// readings for the activity between them.
func readRuntime() rtDelta {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtDelta{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
	}
}

// since is the activity from an earlier reading to this one.
func (b rtDelta) since(a rtDelta) rtDelta {
	return rtDelta{b.allocBytes - a.allocBytes, b.allocObjects - a.allocObjects, b.gcCycles - a.gcCycles, b.gcCPU - a.gcCPU}
}

// heapSampler tracks the peak of heap memory in use by polling the
// runtime every heapPoll, without stopping the world.
type heapSampler struct {
	max  atomic.Uint64
	quit chan struct{}
	wg   sync.WaitGroup
}

const heapPoll = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(heapPoll)
		defer t.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// reset starts a new peak window from the current heap.
func (h *heapSampler) reset() {
	h.max.Store(0)
	h.sample()
}

// peak ends the window: the largest heap in use seen since reset.
func (h *heapSampler) peak() uint64 {
	h.sample()
	return h.max.Load()
}

// stop ends the polling goroutine and waits for it.
func (h *heapSampler) stop() {
	close(h.quit)
	h.wg.Wait()
}
