package fix_test

import (
	"fmt"

	"fix"
	"fix/internal/shape"
)

func ExampleArea() {
	fmt.Println(fix.Area(shape.Square{Side: 2}))
	// Output: 4
}
