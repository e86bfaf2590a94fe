package lint

import "testing"

func TestPRNGDiscipline(t *testing.T) {
	runFixture(t, PRNGDiscipline(), "prngdiscipline")
}
