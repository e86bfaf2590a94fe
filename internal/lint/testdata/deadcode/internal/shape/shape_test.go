package shape_test

import (
	"testing"

	"fix/internal/plot"
)

// TestUnitPerimeter calls a test-file method on a value of a package
// that imports shape, which type-checks only with plot rebuilt.
func TestUnitPerimeter(t *testing.T) {
	if p := plot.Unit().Perimeter(); p != 4 {
		t.Fatalf("perimeter %v", p)
	}
}
