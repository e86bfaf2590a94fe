package lint

import "testing"

func TestCtxFlowLibrary(t *testing.T) {
	runFixture(t, CtxFlow(), "ctxflow")
}

func TestCtxFlowMainPackage(t *testing.T) {
	runFixture(t, CtxFlow(), "ctxflow/cmd")
}
