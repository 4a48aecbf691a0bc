// Package debugassert is the sanitizer-style runtime assertion layer.
//
// Assertions are compiled out of release builds: Enabled is a build-tag
// constant, so `if debugassert.Enabled { ... }` blocks are dead-code
// eliminated unless the binary is built with `-tags debugassert`. Hot
// paths guard their checks that way; cold paths may call Assertf
// unconditionally (it is a no-op when disabled).
//
// The checks wired through the codebase enforce the paper's core
// invariants (see DESIGN.md "Invariant catalog"):
//
//   - MBB validity: min <= max on all three axes of every bounding box
//     crossing the index codec;
//   - best-first monotonicity: MINDIST of popped heap entries never
//     decreases during an incremental search (Theorem 2's correctness
//     hinges on it);
//   - pruning-bound ordering: OPTDISSIM <= DISSIM <= PESDISSIM, i.e.
//     every approximate dissimilarity interval has non-negative error
//     and contains the exact value when both are computed;
//   - buffer integrity: frames evicted from the buffer pool still
//     match the inner pager's checksum.
//
// CI runs the whole test suite with the tag enabled (the "debugassert"
// job), so a regression that violates an invariant fails loudly instead
// of silently returning wrong query results.
package debugassert

import "fmt"

// Assertf panics with a formatted message when the condition is false
// and assertions are enabled. It is a no-op in release builds; guard
// expensive condition computations with `if debugassert.Enabled`.
func Assertf(cond bool, format string, args ...any) {
	if Enabled && !cond {
		panic("debugassert: " + fmt.Sprintf(format, args...))
	}
}
