package experiments

import (
	"context"
	"io"
)

// This file is the package's context-first door. Historically the
// cancellation context rode inside Params.Context; this one-line
// entrypoint makes the context an explicit first argument — the
// canonical shape everywhere else in the codebase — and reduces the
// Params field to plumbing. Passing a context that is never cancelled
// is bit-identical to the Params-only form.

// RunContext runs the experiment under ctx (installed as the params'
// cancellation context).
func (e Experiment) RunContext(ctx context.Context, p Params, w io.Writer) error {
	p.Context = ctx
	return e.Run(p, w)
}
