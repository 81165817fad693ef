package shard

// Randomized crash schedules: where the exhaustive sweeps
// (TestDurableCrashEveryWrite, TestShardedCrashEveryWrite) step a fixed
// workload through every write boundary, this property test randomizes
// EVERYTHING per seed — the serving configuration, the op stream, the
// checkpoint cadence, the crash point — and then keeps crashing the
// RECOVERY itself: reopen attempts run with their own write budgets, so
// crashes land mid-rollback, mid-rebuild, and mid-WAL-replay, until one
// recovery completes and must equal the acked oracle.
//
// Seeds come from CRASH_SEEDS (comma-separated, default "1,2,3") so CI's
// crash-matrix step can fan out without recompiling.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ccidx/internal/disk"
	"ccidx/internal/geom"
	"ccidx/internal/intervals"
	"ccidx/internal/workload"
)

func crashSeeds(t *testing.T) []int64 {
	raw := os.Getenv("CRASH_SEEDS")
	if raw == "" {
		raw = "1,2,3"
	}
	var seeds []int64
	for _, f := range strings.Split(raw, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("CRASH_SEEDS: %v", err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

func randomCrashConfig(rng *rand.Rand, span int64) Config {
	cfg := Config{
		Shards: 1 + rng.Intn(4),
		B:      8,
		Batch:  1 + rng.Intn(8),
	}
	if rng.Intn(2) == 0 {
		cfg.Partition, cfg.Span = PartitionRange, span
	} else {
		cfg.Partition = PartitionHash
	}
	if rng.Intn(2) == 0 {
		cfg.PoolFrames = 32 + rng.Intn(64)
	} else {
		cfg.PoolFrames = -1
	}
	if rng.Intn(2) == 0 {
		// Log-structured ingest mode: tiny memtables and low run budgets so
		// the crash schedule lands mid-flush, mid-merge, mid-runstate-stage
		// and inside WAL replay into a half-merged run set. SyncCompaction
		// keeps merge work on the mutating goroutine — the crash point is
		// then a deterministic function of the op stream and budget.
		cfg.Ingest = &intervals.IngestConfig{
			MemtableSize:   4 + rng.Intn(13),
			MaxRuns:        2 + rng.Intn(3),
			SyncCompaction: true,
		}
	}
	return cfg
}

// runRandomCrashWorkload drives a random churn/checkpoint stream against a
// fresh store in dir, crashing at global write k (k < 0 disarms). It
// records the acked oracle and in-flight op in out and returns the total
// write count of the fault-free prefix it managed.
func runRandomCrashWorkload(t *testing.T, dir string, seed, k int64, out *shardedCrashOutcome) int64 {
	t.Helper()
	const span = int64(3000)
	rng := rand.New(rand.NewSource(seed))
	cfg := randomCrashConfig(rng, span)
	n0 := 60 + rng.Intn(120)
	nops := 150 + rng.Intn(150)
	ckptEvery := 20 + rng.Intn(60)

	init := workload.UniformIntervals(seed+100, n0, span, 200)
	s, err := CreateIntervalsAt(dir, cfg, init, intervals.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	live := map[uint64]geom.Interval{}
	for _, iv := range init {
		live[iv.ID] = iv
	}
	if k >= 0 {
		s.SetWriteBudget(disk.NewWriteBudget(k))
	}

	churn := workload.ChurnOps(seed+200, workload.SeqIDs(n0), uint64(n0), nops, span, 200)
	crashed := false
	for i, op := range churn {
		op := op
		func() {
			defer func() {
				if p := recover(); p != nil {
					err, ok := p.(error)
					if !ok || !errors.Is(err, disk.ErrInjectedFault) {
						panic(p)
					}
					crashed = true
					if out != nil {
						out.inflight = &op
					}
				}
			}()
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
			// Every fault lands on trees whose control caches are populated.
			s.Stab(int64(i*37)%span, func(geom.Interval) bool { return true })
		}()
		if crashed {
			break
		}
		if (i+1)%ckptEvery == 0 {
			if err := s.Checkpoint(); err != nil {
				if !errors.Is(err, disk.ErrInjectedFault) {
					t.Fatalf("checkpoint: %v", err)
				}
				crashed = true
				break
			}
		}
	}
	if out != nil {
		snap := make(map[uint64]geom.Interval, len(live))
		for id, iv := range live {
			snap[id] = iv
		}
		out.acked = snap
	}
	return s.FileWrites()
}

func TestRandomCrashSchedules(t *testing.T) {
	const span = int64(3000)
	for _, seed := range crashSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed ^ 0x5eed))
			total := runRandomCrashWorkload(t, filepath.Join(t.TempDir(), "probe"), seed, -1, nil)
			if total < 50 {
				t.Fatalf("workload too small: %d writes", total)
			}
			crashes := 6
			if testing.Short() {
				crashes = 2
			}
			for c := 0; c < crashes; c++ {
				k := 1 + rng.Int63n(total)
				t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
					dir := filepath.Join(t.TempDir(), "store")
					var out shardedCrashOutcome
					runRandomCrashWorkload(t, dir, seed, k, &out)

					// Crash the recovery itself: reopen with a budget that
					// faults mid-rollback / mid-rebuild / mid-replay, growing
					// it until an attempt survives. Every failed attempt must
					// die with a clean injected fault, and the store must
					// still recover afterwards — a crashed recovery is just
					// another crash.
					var reopened *Intervals
					attempts := 0
					for k2 := int64(0); reopened == nil; k2 += 1 + rng.Int63n(25) {
						attempts++
						if attempts > 10_000 {
							t.Fatal("recovery never survived its budget")
						}
						s, err := OpenIntervals(dir, intervals.DurableOptions{
							Budget: disk.NewWriteBudget(k2),
						})
						if err != nil {
							if !errors.Is(err, disk.ErrInjectedFault) {
								t.Fatalf("crashed recovery (budget %d) surfaced %v, want injected fault", k2, err)
							}
							continue
						}
						s.SetWriteBudget(nil)
						reopened = s
					}
					defer reopened.Close()

					oracles := out.oracles()
					lenOK := false
					for _, om := range oracles {
						if reopened.Len() == len(om) {
							lenOK = true
						}
					}
					if !lenOK {
						t.Fatalf("Len = %d after crash at %d, want %d acked (± in-flight)",
							reopened.Len(), k, len(out.acked))
					}
					check := func(desc string, got []uint64, want func(map[uint64]geom.Interval) []uint64) {
						t.Helper()
						for _, om := range oracles {
							if idsEqual(got, want(om)) {
								return
							}
						}
						t.Fatalf("crash at %d: %s diverged from acked oracle", k, desc)
					}
					for q := int64(0); q <= span; q += span / 13 {
						q := q
						check(fmt.Sprintf("Stab(%d)", q), shardedStabIDs(reopened, q),
							func(om map[uint64]geom.Interval) []uint64 { return bruteStab(om, q) })
					}
					for lo := int64(0); lo <= span; lo += span / 4 {
						q := geom.Interval{Lo: lo, Hi: lo + span/5}
						check(fmt.Sprintf("Intersect(%v)", q), shardedIntersectIDs(reopened, q),
							func(om map[uint64]geom.Interval) []uint64 { return bruteIntersect(om, q) })
					}
					if err := reopened.checkInvariants(); err != nil {
						t.Fatalf("crash at %d: %v", k, err)
					}
				})
			}
		})
	}
}
