package shard

// Checkpoint fault-injection: errors (not crashes) mid-prepare, and the
// recovery contract that distinguishes them from drain-phase faults.
//
//   - A fault inside the PREPARE phase (device checkpoint writes) must
//     roll every already-prepared shard back, leave the manager serving
//     its in-memory state unharmed, and keep the SAME checkpoint
//     retryable in process.
//   - A fault inside the DRAIN (pending group-commit ops applied into the
//     trees) can leave that shard's in-memory tree half-updated: the
//     checkpoint must surface an error rather than kill the process, and
//     reopening recovers the last committed generation.

import (
	"errors"
	"path/filepath"
	"testing"

	"ccidx/internal/disk"
	"ccidx/internal/geom"
	"ccidx/internal/intervals"
	"ccidx/internal/workload"
)

// TestShardedCheckpointFaultRetry arms an increasing shared write budget
// and retries the same checkpoint on the same instance until it succeeds:
// every failed attempt must report the injected fault, leave Seq()
// unchanged, and leave the manager oracle-correct.
func TestShardedCheckpointFaultRetry(t *testing.T) {
	const span = int64(3000)
	dir := filepath.Join(t.TempDir(), "sharded")
	cfg := Config{Shards: 4, B: 8, Batch: 3, Partition: PartitionRange, Span: span, PoolFrames: 64}
	init := workload.UniformIntervals(51, 150, span, 200)
	s, err := CreateIntervalsAt(dir, cfg, init, intervals.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	live := map[uint64]geom.Interval{}
	for _, iv := range init {
		live[iv.ID] = iv
	}
	churn := workload.ChurnOps(53, workload.SeqIDs(150), 150, 120, span, 200)
	for _, op := range churn {
		switch op.Kind {
		case workload.ChurnInsert:
			s.Insert(op.Iv)
			live[op.Iv.ID] = op.Iv
		case workload.ChurnDelete:
			if _, ok := live[op.ID]; ok {
				s.Delete(op.ID)
				delete(live, op.ID)
			}
		}
	}
	// Drain the group-commit buffers up front so the injected faults land
	// in the prepare phase proper — the retryable region. (A fault during
	// the drain is the reopen-only case covered by the test below.)
	s.Flush()
	// Warm every shard's control cache before the first fault: each
	// rollback below then happens under cached entries.
	compareSharded(t, s, live, span)

	seq0 := s.Seq()
	faults := 0
	for k := int64(1); ; k++ {
		if k > 100_000 {
			t.Fatal("checkpoint never succeeded")
		}
		budget := disk.NewWriteBudget(k)
		for _, f := range s.Files() {
			f.SetWriteBudget(budget)
		}
		err := s.Checkpoint()
		if err == nil {
			break
		}
		faults++
		if !errors.Is(err, disk.ErrInjectedFault) {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got := s.Seq(); got != seq0 {
			t.Fatalf("k=%d: failed checkpoint moved seq %d -> %d", k, seq0, got)
		}
		// The manager must keep serving correctly between failed attempts
		// (disarm first: queries may flush pooled frames).
		if k%29 == 0 {
			for _, f := range s.Files() {
				f.SetWriteBudget(nil)
			}
			compareSharded(t, s, live, span)
			if err := s.checkInvariants(); err != nil {
				t.Fatalf("k=%d: after rollback: %v", k, err)
			}
		}
	}
	for _, f := range s.Files() {
		f.SetWriteBudget(nil)
	}
	if faults == 0 {
		t.Fatal("fault injection never fired")
	}
	if got := s.Seq(); got != seq0+1 {
		t.Fatalf("seq after retried checkpoint = %d, want %d", got, seq0+1)
	}
	compareSharded(t, s, live, span)

	// The retried checkpoint is the durable one: reopen and re-verify,
	// then prove the cycle continues (serve, checkpoint, reopen again).
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenIntervals(dir, intervals.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	compareSharded(t, reopened, live, span)
	extra := geom.Interval{Lo: 10, Hi: 20, ID: 999_999}
	reopened.Insert(extra)
	live[extra.ID] = extra
	if err := reopened.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	compareSharded(t, reopened, live, span)
}

// TestShardedCheckpointDrainFaultReopen places the fault in the drain:
// pending ops are buffered, the first drain write fails, and the half-
// applied shard makes in-process retry unsafe — but the error must be a
// clean ErrInjectedFault, and reopening recovers every ACKNOWLEDGED
// mutation: the buffered inserts were WAL-logged at enqueue, so the drain
// fault loses none of them.
func TestShardedCheckpointDrainFaultReopen(t *testing.T) {
	const span = int64(3000)
	dir := filepath.Join(t.TempDir(), "sharded")
	// No pools: drain writes hit the devices directly, so a zero budget
	// faults the very first tree write of the drain.
	cfg := Config{Shards: 2, B: 8, Batch: 8, Partition: PartitionHash, PoolFrames: -1}
	init := workload.UniformIntervals(61, 120, span, 200)
	s, err := CreateIntervalsAt(dir, cfg, init, intervals.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	committed := map[uint64]geom.Interval{}
	for _, iv := range init {
		committed[iv.ID] = iv
	}

	// Buffer mutations WITHOUT flushing; with Batch 8 and 30 inserts over
	// 2 shards both cells hold pending ops when the checkpoint drains. Each
	// insert is acknowledged — logged to its shard's WAL at enqueue — so
	// the reopen oracle includes all of them.
	for i := 0; i < 30; i++ {
		lo := int64(i*90) % span
		iv := geom.Interval{Lo: lo, Hi: lo + 50, ID: uint64(10_000 + i)}
		s.Insert(iv)
		committed[iv.ID] = iv
	}
	budget := disk.NewWriteBudget(0)
	for _, f := range s.Files() {
		f.SetWriteBudget(budget)
	}
	err = s.Checkpoint()
	if err == nil {
		t.Fatal("checkpoint succeeded with a zero write budget")
	}
	if !errors.Is(err, disk.ErrInjectedFault) {
		t.Fatalf("drain fault surfaced as %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenIntervals(dir, intervals.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	compareSharded(t, reopened, committed, span)
	// The reopened instance serves and checkpoints normally.
	extra := geom.Interval{Lo: 100, Hi: 180, ID: 888_888}
	reopened.Insert(extra)
	committed[extra.ID] = extra
	if err := reopened.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	compareSharded(t, reopened, committed, span)
}
