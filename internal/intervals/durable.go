package intervals

// Durable managers: the same Manager, but with both trees on file-backed
// devices (disk.FileDevice) inside a directory, plus crash-safe
// checkpointing.
//
// A checkpoint serializes each tree's out-of-page state (root pointers and
// the stabber's tombstone directories) into its device's superblock with
// the shadow/double-buffer protocol, committed across BOTH devices by one
// atomic manifest rename. The id directory is not serialized at all: it is
// in bijection with the endpoint B+-tree (every live interval is exactly
// one endpoint entry carrying Lo, ID and Hi), so OpenAt rebuilds it with a
// single O(n/B) leaf-chain scan — the dominant cost of a cold open, which
// experiment E21 measures.
//
// The manager-level protocol (PrepareCheckpoint on every device, one
// manifest rename, CommitCheckpoint on every device) is also exposed for
// drivers that span many managers: the sharded serving layer checkpoints
// every shard's devices under a single top-level manifest so a crash can
// never surface shards from different generations.
//
// What is durable: the state at the last committed checkpoint PLUS every
// mutation the write-ahead log recorded since (each Insert/Delete appends
// to the WAL before touching the trees; the sharded layer appends at
// group-commit enqueue). A crash loses at most the single mutation that
// was mid-append. Opting out (DurableOptions.DisableWAL) restores the
// checkpoint-granular window: call Checkpoint as often as the workload
// wants to bound it.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"ccidx/internal/bptree"
	"ccidx/internal/core"
	"ccidx/internal/disk"
	"ccidx/internal/geom"
)

// Device file names inside a durable manager's directory.
const (
	endpointsFile = "endpoints.pages"
	stabberFile   = "stabber.pages"
	walFile       = "wal.log"
)

// manifestKind tags a standalone durable manager's manifest.
const manifestKind = "ccidx-intervals"

// DurableOptions configures the file-backed devices.
type DurableOptions struct {
	// Fsync selects the devices' sync policy (default disk.FsyncCheckpoint).
	Fsync disk.FsyncPolicy
	// DisableWAL turns off the write-ahead log of acknowledged mutations,
	// restoring the checkpoint-granular durability of PR 5: a crash loses
	// everything since the last checkpoint. The default (WAL on) loses at
	// most the mutation that was mid-append.
	DisableWAL bool
	// Budget, when non-nil, arms a shared fault-injection write budget on
	// the devices and the WAL from the very first file write — including
	// the open path's rollback, rebuild, and WAL replay, which a
	// post-construction SetWriteBudget can never reach. Crash-schedule
	// tests use it to land crashes inside recovery itself.
	Budget *disk.WriteBudget
}

// WAL op encoding: one record per acknowledged mutation.
//
//	insert  {1, lo i64, hi i64, id u64}  25 bytes
//	delete  {2, id u64}                   9 bytes
const (
	walOpInsert = 1
	walOpDelete = 2
)

func encodeInsertOp(iv geom.Interval) []byte {
	rec := make([]byte, 25)
	rec[0] = walOpInsert
	binary.LittleEndian.PutUint64(rec[1:], uint64(iv.Lo))
	binary.LittleEndian.PutUint64(rec[9:], uint64(iv.Hi))
	binary.LittleEndian.PutUint64(rec[17:], iv.ID)
	return rec
}

func encodeDeleteOp(id uint64) []byte {
	rec := make([]byte, 9)
	rec[0] = walOpDelete
	binary.LittleEndian.PutUint64(rec[1:], id)
	return rec
}

// Meta is the configuration a durable manager records in its manifest (and
// the sharded layer in its own), so opening needs no out-of-band
// parameters.
type Meta struct {
	B             int           `json:"b"`
	DisableTS     bool          `json:"disable_ts,omitempty"`
	DisableCorner bool          `json:"disable_corner,omitempty"`
	Ingest        *IngestConfig `json:"ingest,omitempty"`
}

func (cfg Config) meta() Meta {
	return Meta{B: cfg.B, DisableTS: cfg.DisableTS, DisableCorner: cfg.DisableCorner, Ingest: cfg.Ingest}
}

// Config returns the manager configuration a Meta describes.
func (mt Meta) Config() Config {
	return Config{B: mt.B, DisableTS: mt.DisableTS, DisableCorner: mt.DisableCorner, Ingest: mt.Ingest}
}

// CreateAt builds a manager over ivs with both trees on file-backed devices
// in dir (created if needed), writes the initial checkpoint and commits it
// under dir's manifest. A crash before CreateAt returns leaves no valid
// manifest; treat the directory as never created.
func CreateAt(dir string, cfg Config, ivs []geom.Interval, opt DurableOptions) (*Manager, error) {
	m, err := CreateManaged(dir, cfg, ivs, opt)
	if err != nil {
		return nil, err
	}
	if err := m.Checkpoint(); err != nil {
		m.CloseFiles()
		return nil, err
	}
	return m, nil
}

// CreateManaged is CreateAt without the initial checkpoint and without a
// directory manifest: for drivers (the sharded serving layer) that commit
// many managers under one top-level manifest via PrepareCheckpoint /
// CommitCheckpoint.
func CreateManaged(dir string, cfg Config, ivs []geom.Interval, opt DurableOptions) (*Manager, error) {
	return createManaged(dir, cfg, ivs, opt, bptree.FillSlack)
}

// createManaged is CreateManaged with the endpoint tree's page-fill policy
// (see newOn). The build runs inside a recover guard like OpenManaged's:
// the trees' Must* helpers panic with error values on a write fault
// (EIO, ENOSPC, an injected fault), which a create must return as an
// error, closing the devices and the WAL it opened.
func createManaged(dir string, cfg Config, ivs []geom.Interval, opt DurableOptions, fill bptree.Fill) (mgr *Manager, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if cfg.Ingest != nil {
		return createLSM(dir, cfg, ivs, opt)
	}
	ep, st, err := openDevices(dir, cfg, opt, nil)
	if err != nil {
		return nil, err
	}
	var wal *disk.WAL
	closeAll := func() {
		ep.Close()
		st.Close()
		if wal != nil {
			wal.Close()
		}
	}
	defer func() {
		if p := recover(); p != nil {
			closeAll()
			e, ok := p.(error)
			if !ok {
				panic(p)
			}
			mgr, err = nil, fmt.Errorf("intervals: creating %s: %w", dir, e)
		}
	}()
	if !opt.DisableWAL {
		wal, err = disk.OpenWAL(filepath.Join(dir, walFile), opt.Fsync)
		if err == nil {
			wal.SetWriteBudget(opt.Budget)
			err = wal.Reset(ep.Seq())
		}
		if err != nil {
			closeAll()
			return nil, err
		}
	}
	m := newOn(cfg, ep, st, ivs, fill)
	m.files = []*disk.FileDevice{ep, st}
	m.wal = wal
	m.dirPath = dir
	return m, nil
}

// OpenAt reopens the durable manager in dir at the generation its manifest
// committed, rebuilding the id directory from the endpoint tree.
func OpenAt(dir string, opt DurableOptions) (*Manager, error) {
	mf, err := disk.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	if mf.Kind != manifestKind {
		return nil, fmt.Errorf("intervals: %s holds a %q checkpoint, not %q", dir, mf.Kind, manifestKind)
	}
	var mt Meta
	if err := json.Unmarshal(mf.Meta, &mt); err != nil {
		return nil, fmt.Errorf("intervals: corrupt manifest meta in %s: %w", dir, err)
	}
	return OpenManaged(dir, mt.Config(), mf.Seq, opt)
}

// OpenManaged reopens the manager in dir trusting generation seq (the
// caller's committed manifest), with cfg from the caller's metadata. The
// rebuild and WAL replay run inside a recover guard: the trees' Must*
// helpers panic with error values on a corrupt page or an injected fault,
// and an open must surface those as errors, not kill the process.
func OpenManaged(dir string, cfg Config, seq uint64, opt DurableOptions) (mgr *Manager, err error) {
	if cfg.Ingest != nil {
		return openLSM(dir, cfg, seq, opt)
	}
	ep, st, err := openDevices(dir, cfg, opt, &seq)
	if err != nil {
		return nil, err
	}
	var wal *disk.WAL
	closeAll := func() {
		ep.Close()
		st.Close()
		if wal != nil {
			wal.Close()
		}
	}
	defer func() {
		if p := recover(); p != nil {
			e, ok := p.(error)
			if !ok {
				panic(p)
			}
			closeAll()
			mgr, err = nil, fmt.Errorf("intervals: opening %s: %w", dir, e)
		}
	}()
	if !ep.HasCheckpoint() || !st.HasCheckpoint() {
		closeAll()
		return nil, fmt.Errorf("intervals: %s has no structure checkpoint at seq %d", dir, seq)
	}
	endpoints, err := bptree.OpenOn(ep, ep.ReadCheckpoint())
	if err != nil {
		closeAll()
		return nil, err
	}
	coreCfg := core.Config{B: cfg.B, DisableTS: cfg.DisableTS, DisableCorner: cfg.DisableCorner}
	stabber, err := core.OpenOn(coreCfg, st, st.ReadCheckpoint())
	if err != nil {
		closeAll()
		return nil, err
	}
	m := &Manager{
		endpoints: endpoints,
		stabber:   stabber,
		dir:       make(map[uint64]geom.Interval, endpoints.Len()),
		cfg:       cfg,
		files:     []*disk.FileDevice{ep, st},
		dirPath:   dir,
	}
	// Rebuild the id directory from the endpoint tree: one O(n/B) scan.
	m.endpoints.All(func(e bptree.Entry) bool {
		m.dir[e.RID] = geom.Interval{Lo: e.Key, Hi: int64(e.Val), ID: e.RID}
		return true
	})
	if len(m.dir) != endpoints.Len() {
		closeAll()
		return nil, fmt.Errorf("intervals: %s endpoint tree holds %d entries but %d distinct ids",
			dir, endpoints.Len(), len(m.dir))
	}
	m.n = len(m.dir)

	// Replay the WAL tail on top of the checkpoint image. Replay is
	// idempotent: an insert already present (logged AND captured by the
	// checkpoint, or replayed once before a crashed replay retried) is
	// skipped, as is a delete of an absent id.
	if !opt.DisableWAL {
		wal, err = disk.OpenWAL(filepath.Join(dir, walFile), opt.Fsync)
		if err != nil {
			closeAll()
			return nil, err
		}
		wal.SetWriteBudget(opt.Budget)
		if _, err := wal.Recover(seq, m.replayOp); err != nil {
			closeAll()
			return nil, fmt.Errorf("intervals: replaying %s wal: %w", dir, err)
		}
		m.wal = wal
	}
	return m, nil
}

// replayOp applies one decoded WAL record idempotently.
func (m *Manager) replayOp(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("empty wal record")
	}
	switch payload[0] {
	case walOpInsert:
		if len(payload) != 25 {
			return fmt.Errorf("insert wal record of %d bytes", len(payload))
		}
		iv := geom.Interval{
			Lo: int64(binary.LittleEndian.Uint64(payload[1:])),
			Hi: int64(binary.LittleEndian.Uint64(payload[9:])),
			ID: binary.LittleEndian.Uint64(payload[17:]),
		}
		if _, present := m.dir[iv.ID]; !present {
			m.applyInsert(iv)
		}
		return nil
	case walOpDelete:
		if len(payload) != 9 {
			return fmt.Errorf("delete wal record of %d bytes", len(payload))
		}
		m.applyDelete(binary.LittleEndian.Uint64(payload[1:]))
		return nil
	default:
		return fmt.Errorf("unknown wal op %d", payload[0])
	}
}

// LogInsert appends an insert record to the WAL without applying or
// syncing it — the shard layer's enqueue hook. Panics on a failed append
// (error-valued, like the trees' Must* helpers) so the crash harness
// recovers it as a crash.
func (m *Manager) LogInsert(iv geom.Interval) {
	if m.wal == nil {
		return
	}
	if err := m.wal.Append(encodeInsertOp(iv)); err != nil {
		panic(fmt.Errorf("intervals: wal append: %w", err))
	}
}

// LogDelete appends a delete record to the WAL without applying or syncing.
func (m *Manager) LogDelete(id uint64) {
	if m.wal == nil {
		return
	}
	if err := m.wal.Append(encodeDeleteOp(id)); err != nil {
		panic(fmt.Errorf("intervals: wal append: %w", err))
	}
}

// SyncWAL syncs the log at the group-commit boundary (a no-op except under
// FsyncAlways — see disk.WAL.Sync).
func (m *Manager) SyncWAL() {
	if m.wal == nil {
		return
	}
	if err := m.wal.Sync(); err != nil {
		panic(fmt.Errorf("intervals: wal sync: %w", err))
	}
}

// WAL exposes the write-ahead log (nil when disabled or in-memory):
// fault-injection tests arm its write budget alongside the devices'.
func (m *Manager) WAL() *disk.WAL { return m.wal }

// SetWriteBudget arms one shared fault-injection budget across both devices
// AND the WAL (log-structured mode: every run's devices, current and
// future, plus the WAL), so the k-th-write crash boundary is global over
// every file-level write the manager issues. Nil disarms.
func (m *Manager) SetWriteBudget(b *disk.WriteBudget) {
	if m.lsm != nil {
		m.lsmSetWriteBudget(b)
		return
	}
	for _, f := range m.files {
		f.SetWriteBudget(b)
	}
	if m.wal != nil {
		m.wal.SetWriteBudget(b)
	}
}

// FileWrites sums the file-level write counters of the devices and the WAL
// — the upper bound of a crash sweep's k. Log-structured mode includes
// runs that have since been merged away (cumulative).
func (m *Manager) FileWrites() int64 {
	if m.lsm != nil {
		return m.lsmFileWrites()
	}
	var n int64
	for _, f := range m.files {
		n += f.FileWrites()
	}
	if m.wal != nil {
		n += m.wal.FileWrites()
	}
	return n
}

func openDevices(dir string, cfg Config, opt DurableOptions, trustSeq *uint64) (ep, st *disk.FileDevice, err error) {
	// trustSeq == nil is the create path: refuse to build a fresh tree over
	// an existing device (it would recover the old pages and leak them all
	// under the new structure).
	mustCreate := trustSeq == nil
	ep, err = disk.OpenFile(filepath.Join(dir, endpointsFile), disk.FileOptions{
		PageSize: bptree.PageSize(cfg.B), Fsync: opt.Fsync, TrustSeq: trustSeq, MustCreate: mustCreate,
		Budget: opt.Budget,
	})
	if err != nil {
		return nil, nil, err
	}
	st, err = disk.OpenFile(filepath.Join(dir, stabberFile), disk.FileOptions{
		PageSize: core.Config{B: cfg.B}.PageSize(), Fsync: opt.Fsync, TrustSeq: trustSeq, MustCreate: mustCreate,
		Budget: opt.Budget,
	})
	if err != nil {
		ep.Close()
		return nil, nil, err
	}
	return ep, st, nil
}

// Durable reports whether the manager runs on file-backed devices.
func (m *Manager) Durable() bool {
	if m.lsm != nil {
		return m.lsm.durable
	}
	return len(m.files) > 0
}

// Seq returns the last durable checkpoint generation (0 before the first).
func (m *Manager) Seq() uint64 {
	if !m.Durable() {
		return 0
	}
	if m.lsm != nil {
		return m.lsm.seq
	}
	return m.files[0].Seq()
}

// PrepareCheckpoint flushes pooled frames and writes generation seq
// (= Seq()+1) on both devices without committing it. Callers must have
// quiesced mutations (checkpointing is a mutation under the manager's
// concurrency contract). On failure neither device is left prepared: a
// prepared endpoints device is rolled back when the stabber device's
// prepare fails, so the manager stays at the previous generation and the
// checkpoint may be retried in process.
func (m *Manager) PrepareCheckpoint(seq uint64) error {
	if !m.Durable() {
		return fmt.Errorf("intervals: manager is not file-backed")
	}
	if m.lsm != nil {
		return m.lsmPrepare(seq)
	}
	if err := m.flushPool(); err != nil {
		return err
	}
	if err := m.files[0].PrepareCheckpoint(seq, m.endpoints.MarshalState()); err != nil {
		return err
	}
	if err := m.files[1].PrepareCheckpoint(seq, m.stabber.MarshalState()); err != nil {
		if rerr := m.files[0].RollbackCheckpoint(); rerr != nil {
			return fmt.Errorf("intervals: rolling back endpoints prepare: %v (original: %w)", rerr, err)
		}
		return err
	}
	return nil
}

// RollbackCheckpoint abandons a prepared (uncommitted) generation on both
// devices, restoring the previous one. Multi-manager drivers call this on
// every successfully prepared manager when a sibling's prepare — or the
// group manifest write — fails.
func (m *Manager) RollbackCheckpoint() error {
	if m.lsm != nil {
		return m.lsmRollback()
	}
	var first error
	for _, f := range m.files {
		if err := f.RollbackCheckpoint(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CommitCheckpoint commits the generation PrepareCheckpoint wrote, after
// the caller's manifest rename made it the committed one, then truncates
// the WAL: everything it logged is captured by the new checkpoint image. A
// crash between the commit record and the truncation is benign — the log's
// stale generation is discarded at the next open.
func (m *Manager) CommitCheckpoint() error {
	if m.lsm != nil {
		return m.lsmCommit()
	}
	for _, f := range m.files {
		if err := f.CommitCheckpoint(); err != nil {
			return err
		}
	}
	if m.wal != nil {
		return m.wal.Reset(m.files[0].Seq())
	}
	return nil
}

// Checkpoint makes the manager's current state durable: prepare both
// devices, atomically flip the directory manifest (the commit point),
// commit. After a crash at ANY point, OpenAt recovers the last committed
// generation on both devices consistently.
func (m *Manager) Checkpoint() error {
	if !m.Durable() {
		return fmt.Errorf("intervals: manager is not file-backed")
	}
	seq := m.Seq() + 1
	if err := m.PrepareCheckpoint(seq); err != nil {
		return err
	}
	metaJSON, err := json.Marshal(m.cfg.meta())
	if err != nil {
		return err
	}
	if err := disk.WriteManifest(m.dirPath, disk.Manifest{
		Version: 1, Kind: manifestKind, Seq: seq, Meta: metaJSON,
	}); err != nil {
		if rerr := m.RollbackCheckpoint(); rerr != nil {
			return fmt.Errorf("intervals: rolling back after manifest failure: %v (original: %w)", rerr, err)
		}
		return err
	}
	return m.CommitCheckpoint()
}

// CloseFiles closes the file-backed devices WITHOUT checkpointing: state
// since the last checkpoint is deliberately left to crash recovery. No-op
// for in-memory managers.
func (m *Manager) CloseFiles() error {
	if m.lsm != nil {
		return m.lsmCloseFiles()
	}
	var first error
	for _, f := range m.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	if m.wal != nil {
		if err := m.wal.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Files exposes the underlying file devices (fault-injection tests arm
// their write budgets); nil for in-memory managers. Log-structured mode
// returns the CURRENT runs' devices — a point-in-time snapshot, since
// merges retire devices; prefer SetWriteBudget, which also arms future
// runs.
func (m *Manager) Files() []*disk.FileDevice {
	if m.lsm != nil {
		l := m.lsm
		l.mu.RLock()
		defer l.mu.RUnlock()
		var out []*disk.FileDevice
		for _, r := range l.runs {
			out = append(out, r.m.Files()...)
		}
		return out
	}
	return m.files
}
