package shard

import (
	"repro/internal/device"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/nand"
	"repro/internal/wal"
)

// Stats is the aggregated observability snapshot of a shard set.
// Counters sum across shards; Recoveries is the maximum instead, because
// a Restart power-cycles every shard as one device-wide event. Latency
// histograms are exact merges of the per-shard distributions.
//
// Consistency: the snapshot is taken under each shard's READ lock in
// turn, so reads may execute concurrently with it (and writes on shards
// not currently being visited). Every underlying counter is atomic, so
// each individual value is exact at its load instant, but the snapshot
// is per-shard-atomic at best — not a single consistent cut across
// shards, and cross-counter invariants (e.g. hits+misses == lookups)
// may be off by in-flight operations. For an exact global snapshot,
// quiesce the workload first.
type Stats struct {
	Dev    device.Stats
	Index  index.Stats
	Flash  nand.Stats
	Scheme string

	// OptimisticReads counts Retrieve/Exist commands served with no
	// shard-level lock at all, validated by seqlock versions under an
	// epoch pin. OptimisticRetries counts lock-free attempts a racing
	// writer invalidated (each retried in place); FallbackExclusive
	// counts reads that re-executed under the write lock after exhausting
	// retries or hitting non-resident state. EpochPins is the device
	// total of successful reader pins on the reclamation domain.
	OptimisticReads   int64
	OptimisticRetries int64
	FallbackExclusive int64
	EpochPins         int64

	// SnapshotsOpen is the number of currently-open set snapshots;
	// SnapshotReads counts point reads served through any snapshot
	// (fast path or frozen view) since the set opened.
	SnapshotsOpen int64
	SnapshotReads int64

	StoreLat    metrics.Histogram
	RetrieveLat metrics.Histogram
	MetaPerOp   metrics.Histogram
	// MetaPerGet is the flash-reads-per-retrieve distribution only —
	// the per-GET cost RHIK bounds at one flash read.
	MetaPerGet metrics.Histogram

	// WAL merges the per-shard commit-log counters; WALAttached is false
	// (and WAL zero) when the set runs without a durable write front.
	WALAttached bool
	WAL         wal.Stats
}

// Stats visits each shard under its read lock and merges counters and
// histograms. See the Stats type for the consistency contract.
func (s *Set) Stats() Stats {
	var out Stats
	out.Scheme = s.shards[0].dev.Index().Name()
	out.SnapshotsOpen = s.snapsOpen.Load()
	out.SnapshotReads = s.snapReads.Load()
	for _, sh := range s.shards {
		sh.mu.RLock()
		ds := sh.dev.Stats()
		is := sh.dev.IndexStats()
		fs := sh.dev.FlashStats()

		out.Dev.Stores += ds.Stores
		out.Dev.Retrieves += ds.Retrieves
		out.Dev.Deletes += ds.Deletes
		out.Dev.Exists += ds.Exists
		out.Dev.Iterates += ds.Iterates
		out.Dev.BytesWritten += ds.BytesWritten
		out.Dev.BytesRead += ds.BytesRead
		out.Dev.GCRuns += ds.GCRuns
		out.Dev.GCPagesMoved += ds.GCPagesMoved
		out.Dev.GCBytesMoved += ds.GCBytesMoved
		out.Dev.Checkpoints += ds.Checkpoints
		out.Dev.ResizeHalt += ds.ResizeHalt
		out.Dev.CollisionAborts += ds.CollisionAborts
		out.Dev.ValueCacheHits += ds.ValueCacheHits
		out.Dev.ValueCacheMisses += ds.ValueCacheMisses
		out.Dev.PrefetchHits += ds.PrefetchHits
		if ds.Recoveries > out.Dev.Recoveries {
			out.Dev.Recoveries = ds.Recoveries
		}

		out.Index.Records += is.Records
		out.Index.Collisions += is.Collisions
		out.Index.Resizes += is.Resizes
		out.Index.DirEntries += is.DirEntries
		out.Index.DRAMBytes += is.DRAMBytes
		out.Index.Cache.Hits += is.Cache.Hits
		out.Index.Cache.Misses += is.Cache.Misses
		out.Index.Cache.Evictions += is.Cache.Evictions
		out.Index.Cache.Inserts += is.Cache.Inserts

		out.Flash.Reads += fs.Reads
		out.Flash.Programs += fs.Programs
		out.Flash.Erases += fs.Erases
		out.Flash.ReadBytes += fs.ReadBytes
		out.Flash.WriteBytes += fs.WriteBytes

		out.OptimisticReads += sh.optimisticReads.Load()
		out.OptimisticRetries += sh.optimisticRetries.Load()
		out.FallbackExclusive += sh.fallbackExclusive.Load()
		out.EpochPins += sh.dev.ReclaimStats().Pins

		out.StoreLat.Merge(sh.dev.StoreLatency())
		out.RetrieveLat.Merge(sh.dev.RetrieveLatency())
		out.MetaPerOp.Merge(sh.dev.MetaReadsPerOp())
		out.MetaPerGet.Merge(sh.dev.MetaReadsPerGet())
		if sh.log != nil {
			out.WALAttached = true
			ws := sh.log.Stats()
			out.WAL.Merge(&ws)
		}
		sh.mu.RUnlock()
	}
	return out
}

// ResetOpStats clears every shard's per-op histograms and cache
// counters, under each shard's write lock in turn. Experiments call it
// between phases (preload vs. measured run) so percentiles and the
// flash-reads-per-GET figure describe only the measured window.
func (s *Set) ResetOpStats() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.dev.ResetOpStats()
		sh.mu.Unlock()
	}
}

// ResizeEvents concatenates each shard's re-configuration history in
// shard order.
func (s *Set) ResizeEvents() []index.ResizeEvent {
	var out []index.ResizeEvent
	for _, sh := range s.shards {
		sh.mu.RLock()
		out = append(out, sh.dev.ResizeEvents()...)
		sh.mu.RUnlock()
	}
	return out
}
