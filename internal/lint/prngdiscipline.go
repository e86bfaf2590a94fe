package lint

import (
	"go/ast"
	"go/token"
)

// PRNGDiscipline returns the analyzer enforcing how the controlled PRNG
// streams may be used:
//
//   - prng.New with a constant seed outside tests is flagged. Every
//     production stream must derive from the campaign's master seed
//     (prng.Derive or a seed parameter); a literal seed hard-wires one
//     stream for all runs, which silently collapses the randomization
//     the MBPTA argument depends on. The two legitimate fixed-seed
//     algorithms in the tree (the ET-test null-distribution simulation
//     and tie-dithering) carry //rm:deterministic justifications.
//
//   - In kernel code (//rm:hotpath functions), a PRNG draw nested under
//     a conditional whose condition reads the receiver's state is
//     flagged: draw order is part of the bit-exactness contract between
//     the compiled kernels and the reference oracle, and a draw that
//     happens only for some cache contents makes the stream position a
//     function of the contents. Draws must sit on unconditional paths
//     (see fillRandom: the victim draw happens on every miss, never
//     under a tag-dependent branch).
func PRNGDiscipline() *Analyzer {
	a := &Analyzer{
		Name: "prngdiscipline",
		Doc:  "enforce seed derivation and draw-order discipline for the controlled PRNG streams",
	}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			if pass.isTestFile(f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				seed, ok := prngNewCall(pass.Info, call)
				if !ok {
					return true
				}
				if tv, ok := pass.Info.Types[seed]; ok && tv.Value != nil {
					if !pass.Suppressed(call.Pos(), "deterministic") {
						pass.Reportf(call.Pos(), "prng.New with constant seed %s: production streams must derive from the master seed (prng.Derive); justify fixed-seed algorithms with //rm:deterministic", tv.Value)
					}
				}
				return true
			})
		}
		for _, fd := range HotpathFuncs(pass) {
			checkConditionalDraws(pass, fd)
		}
		return nil
	}
	return a
}

// checkConditionalDraws walks fd's body tracking conditionals whose
// condition reads the receiver's state; PRNG draws under them are
// findings.
func checkConditionalDraws(pass *Pass, fd *ast.FuncDecl) {
	if fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return
	}
	recv := pass.Info.Defs[fd.Recv.List[0].Names[0]]
	if recv == nil {
		return
	}
	readsReceiver := func(e ast.Expr) bool {
		if e == nil {
			return false
		}
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == recv {
				found = true
			}
			return !found
		})
		return found
	}

	flagged := make(map[token.Pos]bool)
	flagDrawsIn := func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeOf(pass.Info, call)
			if obj != nil && isPRNGDraw(obj) && obj.Name() != "New" && obj.Name() != "Derive" && !flagged[call.Pos()] {
				flagged[call.Pos()] = true
				pass.Reportf(call.Pos(), "PRNG draw conditioned on cache state in kernel %s: draw order must be a pure function of the access sequence, not of the cache contents (bit-exactness contract)", fd.Name.Name)
			}
			return true
		})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IfStmt:
			if readsReceiver(s.Cond) {
				flagDrawsIn(s.Body)
				if s.Else != nil {
					flagDrawsIn(s.Else)
				}
			}
		case *ast.SwitchStmt:
			if s.Tag != nil && readsReceiver(s.Tag) {
				flagDrawsIn(s.Body)
			}
		case *ast.ForStmt:
			if readsReceiver(s.Cond) {
				flagDrawsIn(s.Body)
			}
		}
		return true
	})
}
