package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"minos/internal/pool"
	"minos/internal/workstation"
)

// counters is one snapshot of everything the benchmark reads as a window
// delta: the Go runtime, process CPU, and every public counter the layers
// already keep. All are monotone over a run, so end.sub(start) is the
// window's share.
type counters struct {
	v [numCounters]int64
	// Segments is the stores' sealed-segment count at the snapshot (a
	// level, not a delta); Seals and Merges are per shard because the
	// publish-browse guard is.
	Segments      int
	Seals, Merges [shards]int64
}

type counterID int

const (
	cMallocs counterID = iota
	cAllocBytes
	cGCCycles
	cGCPauseNS
	cCPUNS
	cPNGHits
	cPNGMisses
	cGatewayShed // admission sheds + denied sessions
	cPushDropped
	cPrefetchHits
	cPrefetchMisses
	cPrefetchDropped
	cClusterFaults // failovers + refetches + reroutes
	cReconnects
	cPieceReads
	cBytesOut
	cCacheHits
	cCacheMisses
	cDeviceWaits
	cDeviceWaitNS
	cReadAhead
	cServerShed
	cEncodedHits
	cEncodedMisses
	cPoolAllocs
	cPoolRecycled
	cDiskReads
	cDiskWrites
	cDiskBusyNS // model clock
	numCounters
)

func (c *counters) get(id counterID) int64 { return c.v[id] }
func (c *counters) f(id counterID) float64 { return float64(c.v[id]) }

// snapshot reads every counter. sessions are the workstation sessions the
// load is running on (their prefetch counters are per session).
func (s *stack) snapshot(sessions []*workstation.Session) counters {
	var c counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.v[cMallocs], c.v[cAllocBytes] = int64(ms.Mallocs), int64(ms.TotalAlloc)
	c.v[cGCCycles], c.v[cGCPauseNS] = int64(ms.NumGC), int64(ms.PauseTotalNs)
	c.v[cCPUNS] = int64(processCPU())

	gs := s.hub.Stats()
	c.v[cPNGHits], c.v[cPNGMisses] = gs.PNGHits, gs.PNGMisses
	c.v[cGatewayShed] = gs.Shed + gs.SessionsDenied
	c.v[cPushDropped] = gs.DroppedPushes
	for _, ws := range sessions {
		ps := ws.PrefetchStats()
		c.v[cPrefetchHits] += ps.Hits
		c.v[cPrefetchMisses] += ps.Misses
		c.v[cPrefetchDropped] += ps.Dropped
	}
	for _, cc := range s.dialled {
		c.v[cClusterFaults] += cc.Failovers() + cc.Refetches() + cc.Reroutes()
		c.v[cReconnects] += cc.Reconnects()
	}
	for i, srv := range s.servers {
		st := srv.Stats()
		c.v[cPieceReads] += st.PieceReads
		c.v[cBytesOut] += st.BytesOut
		c.v[cCacheHits] += st.CacheHits
		c.v[cCacheMisses] += st.CacheMiss
		c.v[cDeviceWaits] += st.DeviceWaits
		c.v[cDeviceWaitNS] += st.DeviceWaitNanos
		c.v[cReadAhead] += st.ReadAheadBlocks
		c.v[cServerShed] += st.Shed
		c.v[cEncodedHits] += st.EncodedHits
		c.v[cEncodedMisses] += st.EncodedMiss
		is := srv.ContentIndex().Stats()
		c.Segments += is.Segments
		c.Seals[i], c.Merges[i] = is.Sealed, is.Merges
		ds := srv.Archiver().Device().Stats()
		c.v[cDiskReads] += ds.Reads
		c.v[cDiskWrites] += ds.Writes
		c.v[cDiskBusyNS] += int64(ds.Busy)
	}
	c.v[cPoolAllocs], c.v[cPoolRecycled] = pool.Counters() // process-wide
	return c
}

// sub returns the window delta c - start (Segments stays c's).
func (c counters) sub(start counters) counters {
	for i := range c.v {
		c.v[i] -= start.v[i]
	}
	for i := range c.Seals {
		c.Seals[i] -= start.Seals[i]
		c.Merges[i] -= start.Merges[i]
	}
	return c
}

// ratio is a/(a+b) of two counters, 0 when both are 0.
func (c *counters) ratio(a, b counterID) float64 {
	if c.v[a]+c.v[b] == 0 {
		return 0
	}
	return float64(c.v[a]) / float64(c.v[a]+c.v[b])
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS hands the previous run's memory back and restarts the
// kernel's resident high-water mark, so that in a process that makes
// several runs each run's peak_rss_mb is (nearly) its own. Best effort:
// where the kernel refuses, the mark simply keeps climbing.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // no file is created; failure only loses per-run resolution
}

// peakRSSMiB reads the process's resident high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
