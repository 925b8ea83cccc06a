package tagflow_test

import (
	"path/filepath"
	"testing"

	"samft/internal/lint/linttest"
	"samft/internal/lint/tagflow"
)

func TestTagFlow(t *testing.T) {
	linttest.Run(t, tagflow.Analyzer)
}

// TestTagNamespace runs the namespace fixtures in a tree of their own: tag
// constants are checked module-wide, so they would collide with the dataflow
// fixtures' (which sit below the namespace fixtures' TagUserBase).
func TestTagNamespace(t *testing.T) {
	linttest.RunSuite(t, filepath.Join("testdata", "namespace"), tagflow.Analyzer)
}
