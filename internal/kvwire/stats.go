package kvwire

import "encoding/binary"

// Stats is the device snapshot carried by a STATS response: the counter
// subset remote operators need for dashboards and load tools. All
// fields are uvarints on the wire, preceded by a field count, so old
// parsers skip fields a newer server appends and a newer parser
// zero-fills fields an older server omits.
type Stats struct {
	Shards          uint64
	Stores          uint64
	Retrieves       uint64
	Deletes         uint64
	Exists          uint64
	BytesWritten    uint64
	BytesRead       uint64
	IndexRecords    uint64
	Resizes         uint64
	CollisionAborts uint64
	FlashReads      uint64
	FlashPrograms   uint64
	FlashErases     uint64
	GCRuns          uint64
	Checkpoints     uint64
	// Simulated latency percentiles, nanoseconds.
	StoreP50ns    uint64
	StoreP99ns    uint64
	RetrieveP50ns uint64
	RetrieveP99ns uint64
	// Write-ahead-log counters; all zero when the server runs without a
	// WAL. WALGroupP50/Max describe the records-per-group-commit
	// distribution (how much locking and fsync each append amortized).
	WALRecords  uint64
	WALBytes    uint64
	WALGroups   uint64
	WALFsyncs   uint64
	WALGroupP50 uint64
	WALGroupMax uint64
	// Lock-free read-path counters: reads served with no shard lock,
	// optimistic attempts invalidated by racing writers, reads that fell
	// back to the exclusive lock, and reader epoch pins on the
	// reclamation domain. All zero on servers predating the optimistic
	// tier (the field-count versioning zero-fills them).
	OptimisticReads   uint64
	OptimisticRetries uint64
	FallbackExclusive uint64
	EpochPins         uint64
	// Cache-tier counters: the index-page cache's hits/misses plus the
	// TinyLFU admission rejects, the hot-value tier's hits/misses, and
	// PrefetchHits: the records scans decoded from a data page already
	// read for an earlier record of the same scan. All zero on servers
	// predating the tiered cache (field-count versioning zero-fills
	// them); the admission and hot-value counters also while those tiers
	// run default-off.
	CacheHits        uint64
	CacheMisses      uint64
	AdmissionRejects uint64
	ValueCacheHits   uint64
	ValueCacheMisses uint64
	PrefetchHits     uint64
}

// fields returns the wire order; append new fields at the end only.
func (s *Stats) fields() []*uint64 {
	return []*uint64{
		&s.Shards, &s.Stores, &s.Retrieves, &s.Deletes, &s.Exists,
		&s.BytesWritten, &s.BytesRead,
		&s.IndexRecords, &s.Resizes, &s.CollisionAborts,
		&s.FlashReads, &s.FlashPrograms, &s.FlashErases,
		&s.GCRuns, &s.Checkpoints,
		&s.StoreP50ns, &s.StoreP99ns, &s.RetrieveP50ns, &s.RetrieveP99ns,
		&s.WALRecords, &s.WALBytes, &s.WALGroups, &s.WALFsyncs,
		&s.WALGroupP50, &s.WALGroupMax,
		&s.OptimisticReads, &s.OptimisticRetries,
		&s.FallbackExclusive, &s.EpochPins,
		&s.CacheHits, &s.CacheMisses, &s.AdmissionRejects,
		&s.ValueCacheHits, &s.ValueCacheMisses, &s.PrefetchHits,
	}
}

// AppendStatsResponse appends a STATS success frame.
func AppendStatsResponse(dst []byte, id uint64, s *Stats) []byte {
	mark, dst := beginFrame(dst)
	dst = append(dst, byte(StatusOK))
	dst = binary.AppendUvarint(dst, id)
	fields := s.fields()
	dst = binary.AppendUvarint(dst, uint64(len(fields)))
	for _, f := range fields {
		dst = binary.AppendUvarint(dst, *f)
	}
	return endFrame(dst, mark)
}

// ParseStatsPayload decodes a STATS success payload.
func ParseStatsPayload(p []byte) (Stats, error) {
	var s Stats
	count, n, err := uvarint(p)
	if err != nil {
		return s, err
	}
	if count > 1<<10 {
		return s, ErrFrameTooLarge
	}
	p = p[n:]
	fields := s.fields()
	for i := uint64(0); i < count; i++ {
		v, n, err := uvarint(p)
		if err != nil {
			return s, err
		}
		p = p[n:]
		if i < uint64(len(fields)) {
			*fields[i] = v
		}
	}
	if len(p) != 0 {
		return s, ErrTruncated
	}
	return s, nil
}
