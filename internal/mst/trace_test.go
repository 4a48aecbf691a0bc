package mst

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mstsearch/internal/gstd"
	"mstsearch/internal/ntree"
	"mstsearch/internal/rtree"
	"mstsearch/internal/storage"
	"mstsearch/internal/trajectory"
)

// collectEvents runs one traced search and returns the events alongside
// the results and stats.
func collectEvents(t *testing.T, opts Options, data *trajectory.Dataset, tr *rtree.Tree, q *trajectory.Trajectory, t1, t2 float64) ([]TraceEvent, []Result, Stats) {
	t.Helper()
	var events []TraceEvent
	opts.Trace = func(ev TraceEvent) { events = append(events, ev) }
	res, st, err := Search(tr, q, t1, t2, opts)
	if err != nil {
		t.Fatal(err)
	}
	return events, res, st
}

// TestTraceContract is the reconciliation gate between the event stream
// and the search statistics: every counter in Stats must be derivable
// from the trace, so the two views of a query can never drift apart. The
// store path (Options.Data) follows the metric searcher's rule: every
// admitted candidate ends in exactly one complete event carrying its exact
// value, complete events equal both Completed and ExactRefined, and
// nothing is rejected.
func TestTraceContract(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	data := makeDataset(rng, 40, 100)
	tr := buildRTree(t, data, 1024)
	if err := tr.TrackOwners(); err != nil {
		t.Fatal(err)
	}
	q := queryFrom(rng, &data.Trajs[3], 10, 80)

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"refined", Options{K: 5, Refine: 1, Data: data}},
		{"owners", Options{K: 5, Refine: 1, Data: data, Owners: tr.Owners()}},
		{"owners-without-store", Options{K: 3, Refine: 1, Owners: tr.Owners()}},
		{"unrefined", Options{K: 3, Refine: 1}},
		{"no-heuristics", Options{K: 3, Refine: 1, DisableHeuristic1: true, DisableHeuristic2: true}},
		{"budgeted", Options{K: 3, Refine: 1, MaxNodeAccesses: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events, res, st := collectEvents(t, tc.opts, data, tr, &q, 10, 80)

			count := map[EventKind]int{}
			leaves := 0
			admitted := map[trajectory.ID]bool{}
			completed := map[trajectory.ID]int{}
			for _, ev := range events {
				count[ev.Kind]++
				switch ev.Kind {
				case EventNodeVisit:
					if ev.Leaf {
						leaves++
					}
				case EventCandidateAdmit:
					admitted[ev.TrajID] = true
				case EventCandidateComplete:
					completed[ev.TrajID]++
					if tc.opts.Data != nil && (ev.Lo != ev.Exact || ev.Hi != ev.Exact) {
						t.Errorf("store-path complete event for %d carries [%v, %v], exact %v", ev.TrajID, ev.Lo, ev.Hi, ev.Exact)
					}
				case EventCandidatePrune:
					if ev.Heuristic != 1 {
						t.Errorf("prune event blames heuristic %d, want 1", ev.Heuristic)
					}
				case EventEarlyTerminate:
					if ev.Heuristic != 2 {
						t.Errorf("early-terminate event blames heuristic %d, want 2", ev.Heuristic)
					}
				}
			}

			if got := count[EventNodeVisit]; got != st.NodesAccessed {
				t.Errorf("node-visit events %d != NodesAccessed %d", got, st.NodesAccessed)
			}
			if leaves != st.LeavesAccessed {
				t.Errorf("leaf visit events %d != LeavesAccessed %d", leaves, st.LeavesAccessed)
			}
			if got := count[EventNodeEnqueue]; got != st.Enqueued {
				t.Errorf("node-enqueue events %d != Enqueued %d", got, st.Enqueued)
			}
			if got := count[EventCandidatePrune]; got != st.Rejected {
				t.Errorf("candidate-prune events %d != Rejected %d", got, st.Rejected)
			}
			if got := count[EventCandidateComplete]; got != st.Completed {
				t.Errorf("candidate-complete events %d != Completed %d", got, st.Completed)
			}
			if st.TerminatedEarly && count[EventEarlyTerminate] != 1 {
				t.Errorf("early-terminated search emitted %d early-terminate events, want 1", count[EventEarlyTerminate])
			}
			if st.Degraded && count[EventBudgetExhausted] != 1 {
				t.Errorf("degraded search emitted %d budget-exhausted events, want 1", count[EventBudgetExhausted])
			}
			if got := count[EventLeafSkip]; got != st.LeavesSkipped {
				t.Errorf("leaf-skip events %d != LeavesSkipped %d", got, st.LeavesSkipped)
			}
			if skips := tc.opts.Owners != nil && tc.opts.Data != nil; skips != (st.LeavesSkipped > 0) {
				t.Errorf("LeavesSkipped %d with Owners set %t and Data set %t", st.LeavesSkipped, tc.opts.Owners != nil, tc.opts.Data != nil)
			}
			if tc.opts.Data != nil {
				for id := range admitted {
					if completed[id] != 1 {
						t.Errorf("store path: admitted candidate %d completed %d times, want 1", id, completed[id])
					}
				}
				if got := count[EventCandidateComplete]; got != st.ExactRefined {
					t.Errorf("store path: complete events %d != ExactRefined %d", got, st.ExactRefined)
				}
				if st.Rejected != 0 || st.ExactRefined == 0 {
					t.Errorf("store path: Rejected %d, ExactRefined %d; want 0 and > 0", st.Rejected, st.ExactRefined)
				}
			} else if st.ExactRefined != 0 {
				t.Errorf("paper path evaluated %d candidates exactly", st.ExactRefined)
			}
			for _, r := range res {
				if !admitted[r.TrajID] {
					t.Errorf("result trajectory %d never appeared in a candidate-admit event", r.TrajID)
				}
			}
		})
	}
}

// TestMetricTraceContract is TestTraceContract for the metric searcher.
// Stats.Rejected counts the members Heuristic 1 proved outside the top-k,
// by their entry bound or by a stage of the DTW cascade, and each emits one
// Heuristic 1 prune; subtrees pruned against τ emit Heuristic 2 prunes.
// Every admitted member ends in exactly one complete or one prune, and
// complete events count the finished evaluations.
func TestMetricTraceContract(t *testing.T) {
	ds := gstd.Generate(gstd.Config{NumObjects: 300, SamplesPerObject: 41, Seed: 3})
	tree := ntree.New(storage.NewFile(storage.DefaultPageSize), ds.Get)
	for i := range ds.Trajs {
		if err := tree.InsertTrajectory(&ds.Trajs[i]); err != nil {
			t.Fatal(err)
		}
	}
	foreign := gstd.Generate(gstd.Config{NumObjects: 10, SamplesPerObject: 41, Seed: 4})
	rng := rand.New(rand.NewSource(5))
	for _, mc := range []struct {
		m   Metric
		eps float64
	}{{MetricDISSIM, 0}, {MetricDTW, 0}, {MetricLCSS, 0.05}, {MetricEDR, 0.05}} {
		for _, tc := range []struct {
			name string
			opts Options
		}{
			{"plain", Options{K: 5}},
			{"no-heuristics", Options{K: 3, DisableHeuristic1: true, DisableHeuristic2: true}},
			{"budgeted", Options{K: 3, MaxNodeAccesses: 4}},
		} {
			t.Run(mc.m.String()+"/"+tc.name, func(t *testing.T) {
				filtered := 0
				for iter := 0; iter < 6; iter++ {
					src := &foreign.Trajs[rng.Intn(foreign.Len())]
					lo := rng.Intn(20)
					t1, t2 := src.Samples[lo].T, src.Samples[lo+20].T
					q, _ := src.Slice(t1, t2)
					var events []TraceEvent
					opts := tc.opts
					opts.Data = ds
					opts.Trace = func(ev TraceEvent) { events = append(events, ev) }
					_, st, err := MetricSearchContext(context.Background(), tree, &q, t1, t2, mc.m, mc.eps, opts)
					if err != nil {
						t.Fatal(err)
					}

					count := map[EventKind]int{}
					leaves, prunesH1 := 0, 0
					open := map[trajectory.ID]bool{} // admitted, not yet decided
					for _, ev := range events {
						count[ev.Kind]++
						switch ev.Kind {
						case EventNodeVisit:
							if ev.Leaf {
								leaves++
							}
						case EventCandidateAdmit:
							open[ev.TrajID] = true
						case EventCandidateComplete:
							if !open[ev.TrajID] {
								t.Fatalf("iter %d: trajectory %d completed without an admission", iter, ev.TrajID)
							}
							delete(open, ev.TrajID)
						case EventCandidatePrune:
							switch ev.Heuristic {
							case 1:
								prunesH1++
								if open[ev.TrajID] {
									filtered++
									delete(open, ev.TrajID)
								}
							case 2:
							default:
								t.Errorf("iter %d: prune event blames heuristic %d", iter, ev.Heuristic)
							}
						}
					}
					if len(open) != 0 {
						t.Errorf("iter %d: %d admitted members were neither completed nor pruned", iter, len(open))
					}
					if got := count[EventNodeVisit]; got != st.NodesAccessed {
						t.Errorf("iter %d: node-visit events %d != NodesAccessed %d", iter, got, st.NodesAccessed)
					}
					if leaves != st.LeavesAccessed {
						t.Errorf("iter %d: leaf visit events %d != LeavesAccessed %d", iter, leaves, st.LeavesAccessed)
					}
					if got := count[EventNodeEnqueue]; got != st.Enqueued {
						t.Errorf("iter %d: node-enqueue events %d != Enqueued %d", iter, got, st.Enqueued)
					}
					if prunesH1 != st.Rejected {
						t.Errorf("iter %d: Heuristic 1 prune events %d != Rejected %d", iter, prunesH1, st.Rejected)
					}
					if got := count[EventCandidateComplete]; got != st.Completed || got != st.ExactRefined {
						t.Errorf("iter %d: complete events %d, Completed %d, ExactRefined %d", iter, got, st.Completed, st.ExactRefined)
					}
					if opts.DisableHeuristic1 && st.Rejected != 0 {
						t.Errorf("iter %d: Heuristic 1 disabled, yet %d members rejected", iter, st.Rejected)
					}
				}
				if mc.m == MetricDTW && tc.name == "plain" && filtered == 0 {
					t.Error("no admitted DTW member was filtered or abandoned: the cascade did not run")
				}
			})
		}
	}
}

// TestTraceDoesNotChangeResults pins the observer-effect contract: the
// same query traced and untraced returns bit-identical answers and the
// same work profile.
func TestTraceDoesNotChangeResults(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	data := makeDataset(rng, 30, 50)
	tr := buildRTree(t, data, 1024)
	q := queryFrom(rng, &data.Trajs[5], 5, 45)

	opts := Options{K: 4, Refine: 1, Data: data}
	plain, pst, err := Search(tr, &q, 5, 45, opts)
	if err != nil {
		t.Fatal(err)
	}
	events, traced, tst := collectEvents(t, opts, data, tr, &q, 5, 45)
	if len(events) == 0 {
		t.Fatal("traced run delivered no events")
	}
	if len(plain) != len(traced) {
		t.Fatalf("traced run returned %d results, untraced %d", len(traced), len(plain))
	}
	for i := range plain {
		if plain[i].TrajID != traced[i].TrajID ||
			math.Float64bits(plain[i].Dissim) != math.Float64bits(traced[i].Dissim) {
			t.Fatalf("rank %d: untraced %+v != traced %+v", i, plain[i], traced[i])
		}
	}
	if pst != tst {
		t.Fatalf("stats drifted under tracing: untraced %+v, traced %+v", pst, tst)
	}
}

// TestEventKindString pins the taxonomy's names (they appear in EXPLAIN
// transcripts and logs, so renames are breaking).
func TestEventKindString(t *testing.T) {
	want := map[EventKind]string{
		EventNodeEnqueue:       "node-enqueue",
		EventNodeVisit:         "node-visit",
		EventCandidateAdmit:    "candidate-admit",
		EventCandidateComplete: "candidate-complete",
		EventCandidatePrune:    "candidate-prune",
		EventEarlyTerminate:    "early-terminate",
		EventBudgetExhausted:   "budget-exhausted",
		EventLeafSkip:          "leaf-skip",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}
