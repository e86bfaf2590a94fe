// Package fix is the dead-code gate's fixture: one planted case per rule.
package fix

import "fix/internal/shape"

// OnlyTested has no caller but its own package's test: flagged.
func OnlyTested() int { return 1 }

// Area sums areas through the interface; only an Example calls it: kept.
func Area(ss ...shape.Shape) float64 {
	var sum float64
	for _, s := range ss {
		sum += s.Area()
	}
	return sum
}
