package storage

import "mstsearch/internal/obs"

// Process-wide buffer-pool metrics, summed over every pool in the process
// (each DB's shared pool and the paper experiments' pools alike). Handles
// resolve once at init and each pool operation costs at most one extra
// atomic add per counter touched — the hot paths stay allocation-free.
var metPool = struct {
	hits, misses, retries, evictions *obs.Counter
}{
	hits:      obs.Default.Counter("storage.pool.hits"),
	misses:    obs.Default.Counter("storage.pool.misses"),
	retries:   obs.Default.Counter("storage.pool.retries"),
	evictions: obs.Default.Counter("storage.pool.evictions"),
}
