package mstsearch

import (
	"math/rand"
	"testing"
)

// Test-only bridge for the sharded differential suites, which live in the
// external mstsearch_test package: internal/shard imports this package, so
// its differential tests cannot be compiled into it, yet they must reuse
// the exact same brute-force oracle and workload generators the single-DB
// suites are certified against — re-implementing them there would let the
// two definitions drift apart.

// OracleHit is one linear-scan oracle answer, with exported fields.
type OracleHit struct {
	ID     ID
	Dissim float64
}

// OracleTopK runs the exact brute-force k-MST oracle over the raw slice.
func OracleTopK(trajs []Trajectory, q *Trajectory, t1, t2 float64, k int) []OracleHit {
	hits := linearTopK(trajs, q, t1, t2, k)
	out := make([]OracleHit, len(hits))
	for i, h := range hits {
		out[i] = OracleHit{ID: h.id, Dissim: h.d}
	}
	return out
}

// OracleQueryTraj re-exports the seeded random-walk query generator the
// differential oracle uses (GSTD unit workspace, time domain [0, 1]).
func OracleQueryTraj(rng *rand.Rand, samples int) *Trajectory {
	return oracleQuery(rng, samples)
}

// OracleQueryWindow re-exports the oracle's query-window generator.
func OracleQueryWindow(rng *rand.Rand) (t1, t2 float64) {
	return oracleWindow(rng)
}

// FleetForTest re-exports the seeded fleet generator (workspace [0, 100]²,
// time domain [0, 10]).
func FleetForTest(rng *rand.Rand, n, samples int) []Trajectory {
	return fleet(rng, n, samples)
}

// CheckBitIdentical re-exports the float-bit equality assertion: same
// IDs, same Dissim bits, same Certified flags.
func CheckBitIdentical(t *testing.T, label string, iter int, a, b []Result) {
	t.Helper()
	checkBitIdentical(t, label, iter, a, b)
}

// LifespanWorkload re-exports the heterogeneous-lifespan fleet and its
// requests (Q and Interval set).
func LifespanWorkload(nq int) ([]Trajectory, []Request) {
	return lifespanWorkload(nq)
}
