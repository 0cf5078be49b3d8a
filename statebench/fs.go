package main

import (
	"os"

	"gadget/internal/vfs"
)

// noSyncFS is the real filesystem with every fsync dropped. The LSM
// workloads keep their tables in real files, so reads and writes are
// real syscalls through the page cache, but a flush or compaction does
// not wait for the disk: the tables are deleted at the end of the round,
// and on a shared host the disk's fsync latency would otherwise set a
// share of the timings that no change to the store can move. WAL is off,
// so no syncs but the tables' and the MANIFEST's are dropped.
type noSyncFS struct{ vfs.OsFS }

type noSyncFile struct{ vfs.File }

func (noSyncFile) Sync() error { return nil }

func (f noSyncFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	fl, err := f.OsFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{fl}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }
