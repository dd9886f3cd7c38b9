package server

import (
	"repro/internal/device"
	"repro/internal/kvwire"
	"repro/internal/shard"
)

// Snapshot handling. SNAPSHOT captures a consistent set-wide view and
// registers it under a server-scoped ID; SNAPGET/BACKUP resolve that ID
// from any connection (the registry is global so a client may stream a
// BACKUP over a dedicated connection while the snapshot was opened on a
// pooled one). Ownership is per-connection only for cleanup: when the
// opening connection dies, its snapshots are released so a departed
// client cannot pin flash blocks against GC forever.

// backupChunkBytes flushes a BACKUP chunk frame once its payload grows
// past this, keeping frames far under kvwire.MaxFrameLen even with
// large values.
const backupChunkBytes = 1 << 20

// serverSnap ties a registered snapshot to the connection that opened
// it.
type serverSnap struct {
	ss    *shard.SetSnapshot
	owner *conn
}

func (s *Server) registerSnapshot(ss *shard.SetSnapshot, owner *conn) uint64 {
	id := s.nextSnap.Add(1)
	s.snapMu.Lock()
	s.snaps[id] = &serverSnap{ss: ss, owner: owner}
	s.snapMu.Unlock()
	return id
}

func (s *Server) lookupSnapshot(id uint64) *shard.SetSnapshot {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if sn := s.snaps[id]; sn != nil {
		return sn.ss
	}
	return nil
}

// dropSnapshot removes id from the registry and returns it (nil when
// unknown); the caller releases it outside the lock.
func (s *Server) dropSnapshot(id uint64) *shard.SetSnapshot {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if sn := s.snaps[id]; sn != nil {
		delete(s.snaps, id)
		return sn.ss
	}
	return nil
}

// releaseConnSnapshots releases every snapshot the departing connection
// opened. Tasks it already admitted may still be queued; they will
// observe the release and answer UNKNOWN_SNAPSHOT, which the departed
// peer never reads anyway.
func (s *Server) releaseConnSnapshots(c *conn) {
	var drop []*shard.SetSnapshot
	s.snapMu.Lock()
	for id, sn := range s.snaps {
		if sn.owner == c {
			drop = append(drop, sn.ss)
			delete(s.snaps, id)
		}
	}
	s.snapMu.Unlock()
	for _, ss := range drop {
		ss.Release()
	}
}

// releaseAllSnapshots empties the registry during Shutdown, before the
// set closes.
func (s *Server) releaseAllSnapshots() {
	var drop []*shard.SetSnapshot
	s.snapMu.Lock()
	for id, sn := range s.snaps {
		drop = append(drop, sn.ss)
		delete(s.snaps, id)
	}
	s.snapMu.Unlock()
	for _, ss := range drop {
		ss.Release()
	}
}

func (s *Server) executeSnapshot(t *task) {
	ss, err := s.set.Snapshot()
	if err != nil {
		t.c.replyStatus(t.id, err)
		return
	}
	info := kvwire.SnapInfo{
		ID:      s.registerSnapshot(ss, t.c),
		Epoch:   ss.Epoch(),
		Records: uint64(ss.Records()),
	}
	t.c.reply(func(b []byte) []byte { return kvwire.AppendSnapshotResponse(b, t.id, &info) })
}

func (s *Server) executeSnapGet(t *task) {
	ss := s.lookupSnapshot(t.snap)
	if ss == nil {
		t.c.replyStatus(t.id, device.ErrSnapshotReleased) // unregistered ID
		return
	}
	v, err := ss.Get(t.key)
	t.c.replyRead(kvwire.OpGet, t.id, v, false, err)
}

func (s *Server) executeSnapRelease(t *task) {
	ss := s.dropSnapshot(t.snap)
	if ss == nil {
		t.c.replyStatus(t.id, device.ErrSnapshotReleased) // unregistered ID
		return
	}
	ss.Release()
	t.c.reply(func(b []byte) []byte { return kvwire.AppendOK(b, t.id) })
}

// executeBackup streams a consistent checkpoint: zero or more chunk
// frames followed by one trailer, all with the request's ID. Snap 0
// captures (and afterwards releases) a snapshot for the duration of the
// stream; a nonzero snap streams a client-held snapshot, which survives
// the backup for further reads. Writers keep committing through the WAL
// throughout — the frozen views are read without shard locks.
func (s *Server) executeBackup(t *task) {
	ss := s.lookupSnapshot(t.snap)
	if t.snap == 0 {
		var err error
		if ss, err = s.set.Snapshot(); err != nil {
			t.c.replyStatus(t.id, err)
			return
		}
		defer ss.Release()
	} else if ss == nil {
		t.c.replyStatus(t.id, device.ErrSnapshotReleased) // unregistered ID
		return
	}
	entries, err := ss.Iterate(nil)
	if err != nil {
		t.c.replyStatus(t.id, err)
		return
	}
	var (
		crc   uint32
		chunk []kvwire.ScanEntry
		bytes int
	)
	flush := func() {
		if len(chunk) == 0 {
			return
		}
		cs := chunk // reply builds synchronously, so the slice is reusable after
		t.c.reply(func(b []byte) []byte { return kvwire.AppendBackupChunk(b, t.id, cs) })
		chunk = chunk[:0]
		bytes = 0
	}
	for _, e := range entries {
		chunk = append(chunk, kvwire.ScanEntry{Key: e.Key, Value: e.Value})
		bytes += len(e.Key) + len(e.Value) + 2*5
		crc = kvwire.BackupCRC(crc, e.Key, e.Value)
		if len(chunk) >= kvwire.MaxBackupChunk || bytes >= backupChunkBytes {
			flush()
		}
	}
	flush()
	epoch, total := ss.Epoch(), uint64(len(entries))
	t.c.reply(func(b []byte) []byte { return kvwire.AppendBackupTrailer(b, t.id, epoch, total, crc) })
}
