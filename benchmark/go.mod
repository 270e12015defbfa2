// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` never compiles it; its import path
// stays under `share/` so it may import the stack's internal packages.
module share/benchmark

go 1.22

require share v0.0.0

replace share => ../
