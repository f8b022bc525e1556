package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"csmaterials/internal/lint/callgraph"
)

// detachLayers are the package-path suffixes allowed to detach from a
// caller's context when annotated: the engine executor and the serving
// cache (detached singleflight flights that must survive a cancelled
// leader, DESIGN §7). A lint:detach annotation anywhere else is not honored —
// handlers and compute code have no sanctioned reason to detach.
var detachLayers = []string{"internal/engine", "internal/serving"}

// CtxFlowAnalyzer enforces the context-threading contract on every
// path reachable from the serving roots: HTTP handlers (any function
// taking *http.Request) and the engine executor's context-taking
// methods. Reachability follows the module call graph conservatively —
// static calls, interface dispatch to every implementation, function
// values, and go statements.
//
// Inside that reachable set, context.Background()/context.TODO() is
// flagged: work detached from the request keeps running after the
// client is gone and defeats the singleflight/breaker/shutdown
// plumbing built on ctx. The only sanctioned detach points are lines
// annotated `// lint:detach <rationale>` inside the engine or serving
// layer (the detached singleflight flight); an annotation outside those
// layers does not suppress the finding.
func CtxFlowAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "ctxflow",
		Doc: "Code reachable from HTTP handlers or the engine executor must thread " +
			"the request context; context.Background()/TODO() there is flagged unless " +
			"annotated // lint:detach inside internal/engine or internal/serving.",
		Run: runCtxFlow,
	}
}

const ctxflowReachKey = "ctxflow.reachable"

// ctxflowReachable computes (once per run) the set of nodes reachable
// from the serving roots.
func ctxflowReachable(mod *Module) map[*callgraph.Node]bool {
	v := mod.Memo(ctxflowReachKey, func() interface{} {
		g := mod.Graph
		var roots []*callgraph.Node
		for _, n := range g.Nodes() {
			if n.Decl == nil || n.IsTest() {
				continue
			}
			if isHandlerDecl(n) || isExecutorEntry(n) {
				roots = append(roots, n)
			}
		}
		return g.Reachable(roots)
	})
	return v.(map[*callgraph.Node]bool)
}

// isHandlerDecl reports whether the node's signature carries a
// *net/http.Request parameter — the module's definition of handler
// code.
func isHandlerDecl(n *callgraph.Node) bool {
	sig, ok := n.Func.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i).Type().String() == "*net/http.Request" {
			return true
		}
	}
	return false
}

// isExecutorEntry reports whether the node is an exported
// context-taking method of the engine executor (type Executor in a
// package ending internal/engine): the roots of every compute path.
func isExecutorEntry(n *callgraph.Node) bool {
	fn := n.Func
	if fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/engine") {
		return false
	}
	if !fn.Exported() {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Executor" {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i).Type().String() == "context.Context" {
			return true
		}
	}
	return false
}

func runCtxFlow(pass *Pass) {
	if pass.Mod == nil {
		return
	}
	reachable := ctxflowReachable(pass.Mod)
	inDetachLayer := false
	for _, s := range detachLayers {
		if strings.HasSuffix(pass.Pkg.Path(), s) || strings.Contains(pass.Pkg.Path(), s+"/") {
			inDetachLayer = true
			break
		}
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		detach := detachLines(pass, file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			node := pass.Mod.Graph.NodeOfDecl(fn)
			if node == nil || !reachable[node] {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				c, isPkg := pass.pkgCallee(call)
				if !isPkg || c.path != "context" || (c.name != "Background" && c.name != "TODO") {
					return true
				}
				line := pass.Fset.Position(call.Pos()).Line
				if detach[line] {
					if inDetachLayer {
						return true // blessed detach point
					}
					pass.Reportf(call.Pos(),
						"lint:detach is only honored inside internal/engine and internal/serving; this context.%s still detaches handler-reachable work from its request",
						c.name)
					return true
				}
				pass.Reportf(call.Pos(),
					"context.%s on a path reachable from handlers/executor detaches the work from its request; thread the caller's ctx (sanctioned detach points are annotated // lint:detach in the engine/serving layer)",
					c.name)
				return true
			})
		}
	}
}

// detachLines collects the lines of file annotated "// lint:detach"
// (trailing text is free-form rationale, same contract as lint:exact).
func detachLines(pass *Pass, file *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if text == "lint:detach" || strings.HasPrefix(text, "lint:detach ") {
				lines[pass.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}
