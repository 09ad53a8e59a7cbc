package callgraph

import (
	"deadmembers/internal/hierarchy"
	"deadmembers/internal/types"
)

// BuildCounted is Build that also returns the builder's dispatch work:
// Overrides probes plus caller fan-outs.
func BuildCounted(prog *types.Program, h *hierarchy.Graph, opts Options) (*Graph, int) {
	b := newBuilder(prog, h, opts.Mode)
	g := b.build(opts)
	return g, b.dispatchWork
}
