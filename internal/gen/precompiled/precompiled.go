// Package precompiled holds the committed iselgen output for the repo's
// example grammars: `.isel` blobs embedded as generated Go source, each
// registering itself in the internal/gen preload store at init time.
// Importing this package (for side effects) makes the `static` engine
// kind construct these grammars from compiled-in tables with zero closure
// work — the fully-ahead-of-time end of the paper's tradeoff.
//
// Regenerate after any grammar change:
//
//	go run ./cmd/iselgen -machine demo  -fixed -go -pkg precompiled -out internal/gen/precompiled/demo_fixed_gen.go
//	go run ./cmd/iselgen -machine jit64 -fixed -go -pkg precompiled -out internal/gen/precompiled/jit64_fixed_gen.go
//
// The golden test in this package regenerates both in memory and fails
// when a committed file is stale (iselgen output is deterministic), so CI
// catches grammar/table drift.
package precompiled
