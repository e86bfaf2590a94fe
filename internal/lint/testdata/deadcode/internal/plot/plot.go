// Package plot imports shape, whose external test imports plot: go test
// rebuilds plot against shape with its in-package test files.
package plot

import "fix/internal/shape"

// Unit has no caller but shape's external test, another package's
// test: kept.
func Unit() shape.Square { return shape.Square{Side: 1} }
