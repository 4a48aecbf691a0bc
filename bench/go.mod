// The benchmark is a module of its own so that the repository's tier-1
// `go build ./... && go test ./...` never depends on it. The module path
// sits under mstsearch/ so the harness may import mstsearch/internal/...
module mstsearch/bench

go 1.22

require mstsearch v0.0.0

replace mstsearch => ../
