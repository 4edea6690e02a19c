package server

import (
	"sync"
	"time"

	"repro/internal/mlg/persist"
)

type snapshotJob struct {
	data []byte        // framed, unsealed MLGP bytes: the Snapshotter's buffer
	base *SnapshotBase // non-nil when the job is a full: install on success
}

// Snapshotter periodically captures server snapshots and persists them
// through a Store. Capture always happens on the tick goroutine (between
// ticks, via MaybeSnapshot): the server frames the snapshot straight into
// one buffer the Snapshotter owns and reuses, so a steady autosave
// allocates no file-sized garbage. The writer — the background goroutine
// in the default async mode, the tick goroutine with Sync — seals the
// checksums, writes the bytes and gives the buffer back. While the writer
// holds the buffer a new snapshot is skipped before anything is encoded,
// not queued: disk latency never extends a tick, and the next cadence
// point takes a fresh one instead.
type Snapshotter struct {
	s   *Server
	cfg PersistConfig

	wg sync.WaitGroup

	mu sync.Mutex
	// jobs hands the buffer to the background writer; nil with Sync and
	// after Close.
	jobs chan snapshotJob
	// buf is the retained encode buffer; busy is set from capture until
	// the writer gives buf back.
	buf  []byte
	busy bool
	// base is the identity of the last full snapshot known to be on disk;
	// incrementals are computed against it. Guarded by mu: the background
	// writer installs it on write success while the tick goroutine reads it.
	base      *SnapshotBase
	sinceFull int
	err       error // last write failure (after retries)
	written   int
	skipped   int
}

// NewSnapshotter creates a snapshotter for s writing into cfg.Store.
func NewSnapshotter(s *Server, cfg PersistConfig) *Snapshotter {
	sn := &Snapshotter{s: s, cfg: cfg}
	if !cfg.Sync {
		sn.jobs = make(chan snapshotJob, 1)
		sn.wg.Add(1)
		go sn.writer(sn.jobs)
	}
	return sn
}

// MaybeSnapshot takes a snapshot if the tick hits the cadence. Must be
// called between ticks on the tick goroutine (the server's after-tick hook
// is the natural place).
func (sn *Snapshotter) MaybeSnapshot(tick int64) {
	if sn.cfg.Every <= 0 || tick%int64(sn.cfg.Every) != 0 {
		return
	}
	sn.Snapshot()
}

// Snapshot captures and persists one snapshot now (full or incremental per
// the FullEvery schedule). In async mode it is skipped, without encoding,
// while the writer still holds the buffer or after Close. Must be called
// between ticks on the tick goroutine.
func (sn *Snapshotter) Snapshot() {
	sn.mu.Lock()
	jobs := sn.jobs
	if !sn.cfg.Sync && (sn.busy || jobs == nil) {
		sn.skipped++
		sn.mu.Unlock()
		return
	}
	sn.busy = true
	buf, base := sn.buf[:0], sn.base
	full := base == nil || sn.cfg.FullEvery <= 1 || sn.sinceFull >= sn.cfg.FullEvery-1
	sn.mu.Unlock()
	var job snapshotJob
	if full {
		job.data = sn.s.AppendSnapshot(buf, nil)
		job.base = &SnapshotBase{Tick: sn.s.TickNumber(), Revs: sn.s.World().ChunkRevisions()}
	} else {
		job.data = sn.s.AppendSnapshot(buf, base)
	}
	if jobs == nil {
		sn.runJob(job)
		return
	}
	jobs <- job // never blocks: busy kept every other job out
}

func (sn *Snapshotter) writer(jobs <-chan snapshotJob) {
	defer sn.wg.Done()
	for job := range jobs {
		sn.runJob(job)
	}
}

// writeAttempts is how many times an IO-failed write is tried, sleeping
// writeBackoff (doubling) between attempts.
const (
	writeAttempts = 3
	writeBackoff  = 50 * time.Millisecond
)

// runJob seals and writes one snapshot with retry/backoff, then gives the
// buffer back; on success of a full it installs the new incremental base
// and resets the full cadence.
func (sn *Snapshotter) runJob(job snapshotJob) {
	persist.Seal(job.data)
	var err error
	backoff := writeBackoff
	for attempt := 0; attempt < writeAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if _, err = sn.cfg.Store.WriteEncoded(job.data); err == nil {
			break
		}
	}
	sn.mu.Lock()
	defer sn.mu.Unlock()
	sn.buf, sn.busy = job.data, false
	if err != nil {
		sn.err = err
		return
	}
	sn.written++
	if job.base != nil {
		sn.base = job.base
		sn.sinceFull = 0
	} else {
		sn.sinceFull++
	}
}

// Err returns the last write failure that survived all retries, if any.
func (sn *Snapshotter) Err() error {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.err
}

// Stats returns how many snapshots were written and how many were skipped
// because the writer was busy.
func (sn *Snapshotter) Stats() (written, skipped int) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.written, sn.skipped
}

// Close stops the background writer after it finishes any snapshot in
// flight; later async snapshots are skipped. It does not take a final
// snapshot — callers that want one (graceful shutdown) write it with
// Server.Save after Close, once ticking has stopped.
func (sn *Snapshotter) Close() {
	sn.mu.Lock()
	jobs := sn.jobs
	sn.jobs = nil
	sn.mu.Unlock()
	if jobs != nil {
		close(jobs)
		sn.wg.Wait()
	}
}
