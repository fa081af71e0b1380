package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// rtSnap is a point-in-time reading of the Go runtime's counters.
type rtSnap struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// allocBytes reads the cumulative heap allocation alone (span deltas).
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler records the highest live heap (the heap marked live by the
// latest GC cycle) while a window runs.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.wg.Wait()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
	return h.peak
}

// windowRT brackets a measured window: a full GC first, so every window
// starts from the same heap, then runtime counters and the heap peak.
type windowRT struct {
	start   rtSnap
	sampler *heapSampler
}

func beginWindowRT() *windowRT {
	runtime.GC()
	return &windowRT{start: readRuntime(), sampler: startHeapSampler()}
}

// rtDelta is what the runtime did during a window.
type rtDelta struct {
	AllocBytes  float64
	GCCycles    float64
	GCCPUFrac   float64
	PeakHeapMiB float64
}

func (w *windowRT) end() rtDelta {
	peak := w.sampler.finish()
	e := readRuntime()
	d := rtDelta{
		AllocBytes:  float64(e.allocBytes - w.start.allocBytes),
		GCCycles:    float64(e.gcCycles - w.start.gcCycles),
		PeakHeapMiB: float64(peak) / (1 << 20),
	}
	if cpu := e.totalCPU - w.start.totalCPU; cpu > 0 {
		d.GCCPUFrac = (e.gcCPU - w.start.gcCPU) / cpu
	}
	return d
}
