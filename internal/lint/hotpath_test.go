package lint

import "testing"

func TestHotpath(t *testing.T) {
	runFixture(t, Hotpath(), "hotpath")
}
