package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"ccidx/internal/geom"
	"ccidx/internal/intervals"
	"ccidx/internal/workload"
)

func sortedIDs(ivs []geom.Interval) []uint64 {
	ids := make([]uint64, len(ivs))
	for i, iv := range ivs {
		ids[i] = iv.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func churnStabIDs(s *Intervals, q int64) []uint64 {
	return sortedIDs(collectStab(s, q))
}

func churnIntersectIDs(s *Intervals, q geom.Interval) []uint64 {
	return sortedIDs(collectIntersect(s, q))
}

func idsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardChurnOracle replays a fixed-seed mixed insert/delete/query
// stream through the sharded manager — both partition schemes, buffer pools
// attached, group commit active so queries constantly observe pending
// deletes — against the naive oracle. Run under -race this also exercises
// the locking around the id directory and the pending-op buffers.
func TestShardChurnOracle(t *testing.T) {
	const span, maxLen = int64(1 << 12), int64(400)
	for _, part := range []Partition{PartitionRange, PartitionHash} {
		for _, batch := range []int{1, 16} {
			t.Run(fmt.Sprintf("part=%d/batch=%d", part, batch), func(t *testing.T) {
				base := workload.UniformIntervals(71, 600, span, maxLen)
				s := NewIntervals(Config{
					Shards: 4, B: 8, Batch: batch, Partition: part, Span: span,
					// 0 => DefaultPoolFrames: pools stay on the hot path.
				}, base)
				nv := intervals.NewNaive(8)
				for _, iv := range base {
					nv.Insert(iv)
				}
				ops := workload.ChurnOps(72, workload.SeqIDs(len(base)), uint64(len(base)), 3000, span, maxLen)
				for i, op := range ops {
					switch op.Kind {
					case workload.ChurnInsert:
						s.Insert(op.Iv)
						nv.Insert(op.Iv)
					case workload.ChurnDelete:
						ds, dn := s.Delete(op.ID), nv.Delete(op.ID)
						if !ds || !dn {
							t.Fatalf("op %d: delete id %d: sharded=%v naive=%v", i, op.ID, ds, dn)
						}
					case workload.ChurnStab:
						got := churnStabIDs(s, op.Q)
						var want []uint64
						nv.Stab(op.Q, func(iv geom.Interval) bool { want = append(want, iv.ID); return true })
						sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
						if !idsEqual(got, want) {
							t.Fatalf("op %d: stab %d: got %d ids, want %d", i, op.Q, len(got), len(want))
						}
					case workload.ChurnIntersect:
						got := churnIntersectIDs(s, op.QIv)
						var want []uint64
						nv.Intersect(op.QIv, func(iv geom.Interval) bool { want = append(want, iv.ID); return true })
						sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
						if !idsEqual(got, want) {
							t.Fatalf("op %d: intersect %v: got %d ids, want %d", i, op.QIv, len(got), len(want))
						}
					}
					if s.Len() != nv.Len() {
						t.Fatalf("op %d: Len drift: sharded %d naive %d", i, s.Len(), nv.Len())
					}
					// Control-cache coherence in every shard, after every op.
					if err := s.checkInvariants(); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
				if s.Delete(1 << 62) {
					t.Fatal("delete of absent id succeeded")
				}
				// Flush and re-check a final sweep so the flushed-state path
				// (not just pending-merge) is also oracle-verified.
				s.Flush()
				for q := int64(0); q < span; q += span / 16 {
					got := churnStabIDs(s, q)
					var want []uint64
					nv.Stab(q, func(iv geom.Interval) bool { want = append(want, iv.ID); return true })
					sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
					if !idsEqual(got, want) {
						t.Fatalf("post-flush stab %d: got %d ids, want %d", q, len(got), len(want))
					}
				}
			})
		}
	}
}

// TestShardConcurrentChurn hammers a sharded manager with parallel mixed
// insert/delete/query workers — the -race exercise for the delete path's
// locking. Correctness here is the absence of races, panics and duplicate
// reports; the sequential oracle above pins exact results.
func TestShardConcurrentChurn(t *testing.T) {
	const span, maxLen = int64(1 << 16), int64(2000)
	for _, part := range []Partition{PartitionRange, PartitionHash} {
		base := workload.UniformIntervals(73, 4000, span, maxLen)
		s := NewIntervals(Config{
			Shards: 4, B: 16, Batch: 16, Partition: part, Span: span,
		}, base)
		workers := 8
		perWorker := 1500
		if testing.Short() {
			perWorker = 300
		}
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + g)))
				// Each worker deletes only ids it inserted itself, so every
				// delete targets a logically live id without coordination.
				var mine []uint64
				next := uint64(1<<32) | uint64(g)<<24
				for i := 0; i < perWorker; i++ {
					switch r := rng.Intn(8); {
					case r < 3:
						lo := rng.Int63n(span)
						iv := geom.Interval{Lo: lo, Hi: lo + rng.Int63n(maxLen), ID: next}
						s.Insert(iv)
						mine = append(mine, next)
						next++
					case r < 5 && len(mine) > 0:
						j := rng.Intn(len(mine))
						if !s.Delete(mine[j]) {
							t.Errorf("worker %d: delete of own id %d failed", g, mine[j])
							return
						}
						mine[j] = mine[len(mine)-1]
						mine = mine[:len(mine)-1]
					case r < 6:
						seen := map[uint64]bool{}
						s.Stab(rng.Int63n(span), func(iv geom.Interval) bool {
							if seen[iv.ID] {
								t.Errorf("worker %d: id %d reported twice", g, iv.ID)
								return false
							}
							seen[iv.ID] = true
							return true
						})
					default:
						lo := rng.Int63n(span)
						seen := map[uint64]bool{}
						s.Intersect(geom.Interval{Lo: lo, Hi: lo + rng.Int63n(maxLen)}, func(iv geom.Interval) bool {
							if seen[iv.ID] {
								t.Errorf("worker %d: id %d reported twice", g, iv.ID)
								return false
							}
							seen[iv.ID] = true
							return true
						})
					}
				}
			}(g)
		}
		wg.Wait()
		s.Flush()
		if t.Failed() {
			return
		}
	}
}
