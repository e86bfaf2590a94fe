// Package shape holds the fixture's interface cases.
package shape

// Shape is called through for Area only, so Corner is flagged.
type Shape interface {
	Area() float64
	Corner() int
}

// Square implements Shape: its methods are kept.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

func (s Square) Corner() int { return 4 }
