package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// instance is one fully set-up system under test.
type instance interface {
	// do runs pool operation i for one client and reports whether it was a
	// write. It is the only call inside a timed window.
	do(client, i int) (write bool, err error)
	// finish runs what follows the timed window: the oracle check, then the
	// timed appends (library workloads) or quiesce, durability check and
	// reopen (serve-rw). It leaves the instance closed.
	finish(out *outcome) error
	// close discards an instance that will not be measured.
	close() error
}

// outcome is what finish adds to a run.
type outcome struct {
	checks, failed int     // oracle and durability checks made, and how many failed
	writeNs        []int64 // write latencies measured outside the timed window
	storeRatio     float64 // bytes stored per byte of user data
	notes          map[string]float64
	firstFailure   string // what the first failed check saw
}

// check counts one check and, when ok is false, one failure.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.checks++
	if !ok {
		o.failed++
		if o.firstFailure == "" {
			o.firstFailure = fmt.Sprintf(format, args...)
		}
	}
}

// loopResult is one closed-loop window.
type loopResult struct {
	queryNs, writeNs []int64
	queryAt          []int64 // when each query completed, from the window's start
	failed           int
	elapsed          time.Duration
	firstErr         error
}

func (r *loopResult) ops() int { return len(r.queryNs) + len(r.writeNs) + r.failed }

// merge adds another window of the same loop.
func (r *loopResult) merge(o loopResult) {
	r.queryNs = append(r.queryNs, o.queryNs...)
	r.queryAt = append(r.queryAt, o.queryAt...)
	r.writeNs = append(r.writeNs, o.writeNs...)
	r.failed += o.failed
	r.elapsed += o.elapsed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// runLoop cycles the pool for dur with one goroutine per client; client c
// issues operations c, c+clients, c+2*clients, ... and waits for each reply
// before sending the next.
func runLoop(clients, poolLen int, dur time.Duration, do func(client, i int) (bool, error)) loopResult {
	parts := make([]loopResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			// Sized so appends never reallocate inside the window.
			p.queryNs = make([]int64, 0, 1<<17)
			p.queryAt = make([]int64, 0, 1<<17)
			p.writeNs = make([]int64, 0, 1<<14)
			t0 := time.Now()
			for i := c; t0.Before(deadline); i += clients {
				write, err := do(c, i%poolLen)
				t1 := time.Now()
				switch {
				case err != nil:
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
				case write:
					p.writeNs = append(p.writeNs, t1.Sub(t0).Nanoseconds())
				default:
					p.queryNs = append(p.queryNs, t1.Sub(t0).Nanoseconds())
					p.queryAt = append(p.queryAt, t1.Sub(start).Nanoseconds())
				}
				t0 = t1
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out loopResult
	for i := range parts {
		out.merge(parts[i])
	}
	out.elapsed = elapsed
	return out
}

// slices cuts the window into n equal parts and returns each part's median
// query latency (ms) and its completed queries per second. The host's clock
// speed moves by a tenth from one second to the next; the median part stands
// for the host's usual state where the whole window's figure would average
// over whatever bursts fell inside it.
func (r *loopResult) slices(n int, window time.Duration) (p50ms, perSec []float64) {
	width := window.Nanoseconds() / int64(n)
	parts := make([][]float64, n)
	for i, at := range r.queryAt {
		if k := int(at / width); k < n { // the last operation may end past the window
			parts[k] = append(parts[k], float64(r.queryNs[i])/1e6)
		}
	}
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		p50ms = append(p50ms, median(p))
		perSec = append(perSec, float64(len(p))/(float64(width)/1e9))
	}
	return p50ms, perSec
}

func setup(w *workloadSpec, pool []op, seed int64) (instance, error) {
	if w.clients > runtime.NumCPU() {
		return nil, fmt.Errorf("workload %s drives %d clients but the host has %d CPUs", w.name, w.clients, runtime.NumCPU())
	}
	if w.serve {
		return setupServe(w, pool, seed)
	}
	return setupLib(w, pool)
}

// timeSlices is how many parts the timed window is cut into for the two
// figures reported as a median over parts.
const timeSlices = 12

// runEndToEnd is the untraced run: tm.setupReps complete set-ups, the last of
// which is measured for tm.timed, then the checks.
func runEndToEnd(w *workloadSpec, seed int64, tm timing) (*runRecord, error) {
	pool := genPool(w, seed)
	rec := newRecord(w, seed, 0, pool)

	var (
		inst   instance
		setups []float64
	)
	for r := 0; r < tm.setupReps; r++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = setup(w, pool, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	heapMB := liveHeapMB()

	before := readMem()
	lr := runLoop(w.clients, len(pool), tm.timed, inst.do)
	after := readMem()

	var out outcome
	if err := inst.finish(&out); err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}
	if len(lr.queryNs) == 0 {
		return nil, fmt.Errorf("no query completed in %s (first error: %v)", tm.timed, lr.firstErr)
	}

	queries := sortedCopy(nsToFloat(lr.queryNs, 1e6))
	writes := sortedCopy(nsToFloat(append(lr.writeNs, out.writeNs...), 1e6))
	if len(writes) == 0 {
		return nil, fmt.Errorf("no write completed (first error: %v)", lr.firstErr)
	}
	done := float64(len(lr.queryNs) + len(lr.writeNs))
	rec.Attempted = lr.ops() + out.checks + len(out.writeNs)
	rec.Failed = lr.failed + out.failed
	rec.Correct = rec.Failed == 0
	rec.TailPercentile = tailQuantile(len(queries))
	rec.FirstError = out.firstFailure
	if lr.firstErr != nil {
		rec.FirstError = lr.firstErr.Error()
	}

	rec.put("setup_s", median(setups), len(setups))
	p50s, rates := lr.slices(timeSlices, tm.timed)
	rec.put("queries_per_s", median(rates), len(queries))
	rec.put("query_p50_ms", median(p50s), len(queries))
	rec.put("query_p99_ms", quantile(queries, rec.TailPercentile), len(queries))
	rec.put("write_p50_ms", quantile(writes, 0.5), len(writes))
	rec.put("correct_share", 1-float64(rec.Failed)/float64(rec.Attempted), rec.Attempted)
	rec.put("allocs_per_op", float64(after.mallocs-before.mallocs)/done, int(done))
	rec.put("alloc_kb_per_op", float64(after.bytes-before.bytes)/1024/done, int(done))
	rec.put("heap_mb", heapMB, 1)
	rec.put("store_bytes_per_user_byte", out.storeRatio, 1)
	rec.Notes = out.notes
	return rec, nil
}
