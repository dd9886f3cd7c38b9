package rhik

import "time"

// Stats is the public observability snapshot of an open device,
// aggregated across shards: command counts, traffic, index state, and
// flash activity sum over shards; Recoveries counts device-wide power
// cycles (every shard restarts together); latency percentiles come from
// exact merges of the per-shard histograms.
type Stats struct {
	// Command counts.
	Stores, Retrieves, Deletes, Exists int64
	// Host payload traffic.
	BytesWritten, BytesRead int64

	// Index state.
	IndexRecords     int64
	IndexScheme      string
	DirectoryEntries int
	Resizes          int
	ResizeHaltTotal  time.Duration
	CollisionAborts  int64
	CacheHits        int64
	CacheMisses      int64
	AdmissionRejects int64

	// Hot-value tier (zero unless Options.ValueCacheBudget > 0).
	ValueCacheHits   int64
	ValueCacheMisses int64
	// PrefetchHits counts the records scans decoded from a data page
	// already read for an earlier record of the same scan.
	PrefetchHits int64

	// Flash activity.
	FlashReads, FlashPrograms, FlashErases int64
	GCRuns                                 int64
	Checkpoints                            int64
	Recoveries                             int64

	// Latency percentiles over simulated time.
	StoreP50, StoreP99       time.Duration
	RetrieveP50, RetrieveP99 time.Duration

	// FlashReadsPerGet is the mean number of metadata flash reads a
	// retrieve's index lookup performed — the figure RHIK bounds at one
	// (zero when the lookup answered from DRAM).
	FlashReadsPerGet float64
}

// ResizeEvent is one RHIK re-configuration, exposed for Fig. 7-style
// analysis.
type ResizeEvent struct {
	KeysBefore  int64
	NewCapacity int64
	Took        time.Duration
}

// Stats returns a snapshot of device counters and percentiles merged
// across every shard.
func (db *DB) Stats() Stats {
	agg := db.set.Stats()
	return Stats{
		Stores:    agg.Dev.Stores,
		Retrieves: agg.Dev.Retrieves,
		Deletes:   agg.Dev.Deletes,
		Exists:    agg.Dev.Exists,

		BytesWritten: agg.Dev.BytesWritten,
		BytesRead:    agg.Dev.BytesRead,

		IndexRecords:     agg.Index.Records,
		IndexScheme:      agg.Scheme,
		DirectoryEntries: agg.Index.DirEntries,
		Resizes:          agg.Index.Resizes,
		ResizeHaltTotal:  time.Duration(int64(agg.Dev.ResizeHalt)),
		CollisionAborts:  agg.Dev.CollisionAborts,
		CacheHits:        agg.Index.Cache.Hits,
		CacheMisses:      agg.Index.Cache.Misses,
		AdmissionRejects: agg.Index.Cache.AdmissionRejects,
		ValueCacheHits:   agg.Dev.ValueCacheHits,
		ValueCacheMisses: agg.Dev.ValueCacheMisses,
		PrefetchHits:     agg.Dev.PrefetchHits,

		FlashReads:    agg.Flash.Reads,
		FlashPrograms: agg.Flash.Programs,
		FlashErases:   agg.Flash.Erases,
		GCRuns:        agg.Dev.GCRuns,
		Checkpoints:   agg.Dev.Checkpoints,
		Recoveries:    agg.Dev.Recoveries,

		StoreP50:    time.Duration(agg.StoreLat.Percentile(50)),
		StoreP99:    time.Duration(agg.StoreLat.Percentile(99)),
		RetrieveP50: time.Duration(agg.RetrieveLat.Percentile(50)),
		RetrieveP99: time.Duration(agg.RetrieveLat.Percentile(99)),

		FlashReadsPerGet: agg.MetaPerGet.Mean(),
	}
}

// ResetOpStats clears per-op latency histograms and cache counters on
// every shard, so an experiment can separate a preload phase from the
// measured run. Cumulative totals (command counts, flash activity,
// resizes) are unaffected.
func (db *DB) ResetOpStats() {
	db.set.ResetOpStats()
}

// ResizeEvents returns RHIK's re-configuration history, concatenated in
// shard order (empty for the multi-level index).
func (db *DB) ResizeEvents() []ResizeEvent {
	evs := db.set.ResizeEvents()
	out := make([]ResizeEvent, len(evs))
	for i, e := range evs {
		out[i] = ResizeEvent{
			KeysBefore:  e.KeysBefore,
			NewCapacity: e.NewCapacity,
			Took:        time.Duration(int64(e.Took)),
		}
	}
	return out
}
