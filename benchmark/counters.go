package main

import (
	"repro/internal/kvwire"
	"repro/internal/shard"
)

// counter names one of the program's own counters: the simulated-device
// clock of the ledger. They are read before and after a timed window from
// Set.Stats() in process or the STATS op over the wire; what the wire form
// does not carry stays zero there.
type counter int

const (
	cStores counter = iota
	cRetrieves
	cIterates
	cBytesWritten
	cFlashReads
	cFlashPrograms
	cFlashErases
	cFlashWriteBytes
	cGCRuns
	cGCBytesMoved
	cCacheHits
	cCacheMisses
	cCacheEvictions
	cAdmissionRejects
	cVCacheHits
	cVCacheMisses
	cPrefetchHits
	cOptimisticReads
	cOptimisticRetries
	cFallbackExclusive
	cEpochPins
	cResizes
	cResizeHaltNs
	cWALRecords
	cWALBytes
	cWALGroups
	cWALFsyncs
	cSimElapsedNs
	cDRAMBytes // a gauge: sub keeps the later value
	numCounters
)

type counters [numCounters]int64

// pageBytes is the emulated flash page every spec uses; the wire form
// reports programs, not bytes.
const pageBytes = 32 << 10

func countersOfSet(set *shard.Set) counters {
	st := set.Stats()
	return counters{
		cStores: st.Dev.Stores, cRetrieves: st.Dev.Retrieves, cIterates: st.Dev.Iterates,
		cBytesWritten: st.Dev.BytesWritten,
		cFlashReads:   st.Flash.Reads, cFlashPrograms: st.Flash.Programs, cFlashErases: st.Flash.Erases,
		cFlashWriteBytes: st.Flash.WriteBytes,
		cGCRuns:          st.Dev.GCRuns, cGCBytesMoved: st.Dev.GCBytesMoved,
		cCacheHits: st.Index.Cache.Hits, cCacheMisses: st.Index.Cache.Misses,
		cCacheEvictions: st.Index.Cache.Evictions, cAdmissionRejects: st.Index.Cache.AdmissionRejects,
		cVCacheHits: st.Dev.ValueCacheHits, cVCacheMisses: st.Dev.ValueCacheMisses,
		cPrefetchHits:    st.Dev.PrefetchHits,
		cOptimisticReads: st.OptimisticReads, cOptimisticRetries: st.OptimisticRetries,
		cFallbackExclusive: st.FallbackExclusive, cEpochPins: st.EpochPins,
		cResizes: int64(st.Index.Resizes), cResizeHaltNs: int64(st.Dev.ResizeHalt),
		cWALRecords: st.WAL.Records, cWALBytes: st.WAL.Bytes,
		cWALGroups: st.WAL.Groups, cWALFsyncs: st.WAL.Fsyncs,
		cSimElapsedNs: int64(set.Elapsed()),
		cDRAMBytes:    st.Index.DRAMBytes,
	}
}

func countersOfWire(st kvwire.Stats) counters {
	return counters{
		cStores: int64(st.Stores), cRetrieves: int64(st.Retrieves),
		cBytesWritten: int64(st.BytesWritten),
		cFlashReads:   int64(st.FlashReads), cFlashPrograms: int64(st.FlashPrograms), cFlashErases: int64(st.FlashErases),
		cFlashWriteBytes: int64(st.FlashPrograms) * pageBytes,
		cGCRuns:          int64(st.GCRuns),
		cCacheHits:       int64(st.CacheHits), cCacheMisses: int64(st.CacheMisses),
		cAdmissionRejects: int64(st.AdmissionRejects),
		cVCacheHits:       int64(st.ValueCacheHits), cVCacheMisses: int64(st.ValueCacheMisses),
		cPrefetchHits:    int64(st.PrefetchHits),
		cOptimisticReads: int64(st.OptimisticReads), cOptimisticRetries: int64(st.OptimisticRetries),
		cFallbackExclusive: int64(st.FallbackExclusive), cEpochPins: int64(st.EpochPins),
		cResizes:    int64(st.Resizes),
		cWALRecords: int64(st.WALRecords), cWALBytes: int64(st.WALBytes),
		cWALGroups: int64(st.WALGroups), cWALFsyncs: int64(st.WALFsyncs),
	}
}

// sub returns the change from before to c.
func (c counters) sub(before counters) counters {
	d := c
	for i := range d {
		if counter(i) != cDRAMBytes {
			d[i] -= before[i]
		}
	}
	return d
}

// f is counter i as a float, for ratios.
func (c counters) f(i counter) float64 { return float64(c[i]) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
