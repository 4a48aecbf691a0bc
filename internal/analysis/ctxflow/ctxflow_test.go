package ctxflow_test

import (
	"testing"

	"mstsearch/internal/analysis/analysistest"
	"mstsearch/internal/analysis/ctxflow"
)

func TestCtxflow(t *testing.T) {
	diags := analysistest.Run(t, ctxflow.Analyzer, "testdata/ctxflow")
	if len(diags) != 6 {
		t.Errorf("got %d diagnostics, want 6", len(diags))
	}
}
