package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotpath guards the annotated hot paths — the kernels the paper's
// real-time budget hangs on (CSR SpMV, the GMRES cycle, element
// stiffness assembly, the EDT scans). The innermost loops of a
// //lint:hotpath function may not allocate (make, append, fmt
// formatting, interface boxing), lock, block, touch a channel, spawn a
// goroutine, or call module code whose transitive summary
// (callgraph.go) allocates, formats, locks or blocks; those findings
// spell the call chain out edge by edge. An innermost loop's cost is
// multiplied by the trip count of every enclosing loop.
type hotpath struct{}

func (hotpath) Name() string { return "hotpath" }

func (hotpath) Doc() string {
	return "innermost loops of //lint:hotpath functions may not allocate, lock, or block, directly " +
		"or through any call chain (module-wide call-graph summaries; the finding reports the chain)"
}

func (h hotpath) Run(pkg *Package) []Finding {
	var out []Finding
	var graph *CallGraph
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hasDirective(fd.Doc, "hotpath") {
				continue
			}
			if fd.Body == nil || !containsLoop(fd.Body) {
				out = append(out, Finding{Pos: pkg.Fset.Position(fd.Name.Pos()), Analyzer: "hotpath",
					Msg: "//lint:hotpath on a function without loops; drop the stale annotation"})
				continue
			}
			if graph == nil {
				graph = pkg.Mod.Graph()
			}
			for _, loop := range innermostLoops(fd.Body) {
				out = append(out, h.checkLoop(pkg, graph, loop)...)
			}
		}
	}
	return out
}

// innermostLoops returns the loops in the subtree that contain no
// nested loop (the bodies where per-iteration cost is multiplied by
// the full trip count of every enclosing loop).
func innermostLoops(body ast.Node) []ast.Node {
	var out []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		var inner ast.Node
		switch l := n.(type) {
		case *ast.ForStmt:
			inner = l.Body
		case *ast.RangeStmt:
			inner = l.Body
		default:
			return true
		}
		if !containsLoop(inner) {
			out = append(out, inner)
			return false
		}
		return true
	})
	return out
}

func (hotpath) checkLoop(pkg *Package, graph *CallGraph, loop ast.Node) []Finding {
	var out []Finding
	flag := func(pos token.Pos, msg string) {
		out = append(out, Finding{Pos: pkg.Fset.Position(pos), Analyzer: "hotpath", Msg: msg})
	}
	exempt := exemptCommOps(loop)
	ast.Inspect(loop, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			if !exempt[x] {
				flag(x.Pos(), "channel send inside the innermost loop of a //lint:hotpath function blocks the kernel per iteration")
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !exempt[x] {
				flag(x.Pos(), "channel receive inside the innermost loop of a //lint:hotpath function blocks the kernel per iteration")
			}
		case *ast.SelectStmt:
			if !selectHasEscape(x) {
				flag(x.Pos(), "select without default inside the innermost loop of a //lint:hotpath function blocks the kernel per iteration")
			}
		case *ast.GoStmt:
			flag(x.Pos(), "go statement inside the innermost loop of a //lint:hotpath function spawns a goroutine per iteration")
		case *ast.CallExpr:
			checkHotCall(pkg, graph, x, flag)
		}
		return true
	})
	return out
}

// checkHotCall reports one call in a hot innermost loop: allocating
// builtins, boxing conversions and fmt formatters by their syntax,
// locking/blocking stdlib calls by classification, and module callees
// by their transitive effect summaries.
func checkHotCall(pkg *Package, graph *CallGraph, call *ast.CallExpr, flag func(token.Pos, string)) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				flag(call.Pos(), "make inside the innermost loop of a //lint:hotpath function allocates per iteration; hoist the buffer")
			case "append":
				flag(call.Pos(), "append inside the innermost loop of a //lint:hotpath function grows per iteration; preallocate outside the loop")
			}
			return
		}
	}
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface && len(call.Args) == 1 {
			if at := pkg.Info.Types[call.Args[0]].Type; at != nil {
				if _, already := at.Underlying().(*types.Interface); !already {
					flag(call.Pos(), "conversion to an interface type boxes the value on every iteration of a //lint:hotpath innermost loop")
				}
			}
		}
		return
	}
	fn := calleeFunc(pkg, call)
	for _, name := range [...]string{"Sprintf", "Sprint", "Sprintln", "Errorf"} {
		if isFuncNamed(fn, "fmt", name) {
			flag(call.Pos(), "fmt."+name+" inside the innermost loop of a //lint:hotpath function allocates per iteration")
		}
	}
	// Direct stdlib locking/blocking; allocation and formatting were
	// reported above by their syntax.
	if eff, desc, ok := classifyCall(pkg, call); ok && (eff == EffLock || eff == EffBlock) {
		flag(call.Pos(), desc+" inside the innermost loop of a //lint:hotpath function "+eff.String()+" per iteration")
	}
	// Transitive reach through module callees.
	for _, target := range calleeTargets(graph, pkg, call) {
		for eff := Effect(0); eff < numEffects; eff++ {
			if target.Has(eff) {
				flag(call.Pos(), "call in a //lint:hotpath innermost loop reaches code that "+
					eff.String()+": "+target.Chain(eff))
			}
		}
	}
}
