package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath returns the analyzer enforcing the zero-alloc contract on
// //rm:hotpath-annotated functions: the compiled replay kernels promise
// "0 allocs per steady-state run", and these constructs defeat that
// promise (or gift the escape analysis a reason to):
//
//   - defer and go statements (runtime bookkeeping, and go is also
//     nondeterministic scheduling on a bit-exact path)
//   - closure literals (closure header allocation, escape of captures)
//   - map and slice composite literals, make, new
//   - fmt.* calls (interface boxing of every argument) — except when the
//     result feeds panic directly, since a hot path that is already dead
//     may say why; cold panic helpers are the preferred shape
//   - string<->[]byte conversions (copies)
//   - explicit conversions to interface types (boxing)
//   - append whose destination is not a reslice of an existing buffer
//     (append into buf[:0]-style scratch keeps capacity preallocated;
//     anything else may grow on the hot path)
//
// The static check is the cheap half of the gate; the compiler half is
// TestNoHeapEscapeInHotpath, which runs escape analysis over the same
// annotated spans.
func Hotpath() *Analyzer {
	a := &Analyzer{
		Name: "hotpath",
		Doc:  "forbid allocation-prone constructs in //rm:hotpath functions",
	}
	a.Run = func(pass *Pass) error {
		for _, fd := range HotpathFuncs(pass) {
			checkHotpathBody(pass, fd)
		}
		return nil
	}
	return a
}

func checkHotpathBody(pass *Pass, fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	name := fd.Name.Name
	panicArgs := panicArgSpans(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "defer in hot path %s: defers allocate and run per call", name)
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in hot path %s: spawning goroutines on the replay path breaks the zero-alloc and determinism contracts", name)
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal in hot path %s: closures allocate; hoist to a named function or method value bound at construction", name)
			return false // don't double-report the closure's own body
		case *ast.CompositeLit:
			tv, ok := pass.Info.Types[n]
			if !ok || tv.Type == nil {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal in hot path %s: allocates; bind lookup tables at construction time", name)
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal in hot path %s: allocates; use preallocated scratch", name)
			}
		case *ast.CallExpr:
			checkHotpathCall(pass, name, n, panicArgs)
		}
		return true
	})
}

// panicArgSpans records the source spans of arguments to panic calls in
// body: a fmt call inside one is the accepted idiom for describing a
// programming error on an otherwise-dead branch (though hoisting the
// whole panic into a cold helper keeps the escape-analysis gate clean
// and is preferred).
func panicArgSpans(body *ast.BlockStmt) [][2]token.Pos {
	var spans [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			for _, arg := range call.Args {
				spans = append(spans, [2]token.Pos{arg.Pos(), arg.End()})
			}
		}
		return true
	})
	return spans
}

func inSpans(spans [][2]token.Pos, pos token.Pos) bool {
	for _, s := range spans {
		if s[0] <= pos && pos < s[1] {
			return true
		}
	}
	return false
}

func checkHotpathCall(pass *Pass, name string, call *ast.CallExpr, panicArgs [][2]token.Pos) {
	// Conversions parse as calls: T(x). Flag boxing and copying ones.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type
		if from, ok := pass.Info.Types[call.Args[0]]; ok && from.Type != nil {
			if types.IsInterface(to.Underlying()) && !types.IsInterface(from.Type.Underlying()) {
				pass.Reportf(call.Pos(), "conversion to interface %s in hot path %s: boxes the value on the heap", to, name)
			}
			if isStringByteConv(to, from.Type) {
				pass.Reportf(call.Pos(), "string/[]byte conversion in hot path %s: copies", name)
			}
		}
		return
	}
	obj := calleeOf(pass.Info, call)
	if obj == nil {
		return
	}
	if obj.Pkg() == nil { // builtin
		switch obj.Name() {
		case "make":
			pass.Reportf(call.Pos(), "make in hot path %s: allocates; size scratch buffers at construction or reseed time", name)
		case "new":
			pass.Reportf(call.Pos(), "new in hot path %s: allocates", name)
		case "append":
			if len(call.Args) > 0 {
				if _, resliced := ast.Unparen(call.Args[0]).(*ast.SliceExpr); !resliced {
					pass.Reportf(call.Pos(), "append to a non-resliced destination in hot path %s: may grow; append into preallocated scratch (buf[:0] idiom) instead", name)
				}
			}
		}
		return
	}
	if obj.Pkg().Path() == "fmt" && !inSpans(panicArgs, call.Pos()) {
		pass.Reportf(call.Pos(), "fmt.%s call in hot path %s: boxes arguments and allocates; hoist formatting off the hot path (cold panic helpers are exempt)", obj.Name(), name)
	}
}

// isStringByteConv reports string <-> []byte/[]rune conversions.
func isStringByteConv(to, from types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(to) && isByteSlice(from)) || (isByteSlice(to) && isStr(from))
}
