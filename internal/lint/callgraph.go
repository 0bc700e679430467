package lint

// This file is the interprocedural layer under the v3 analyzers
// (hotpath, ctxprop, lockscope): a module-wide call graph over every
// loaded package, plus a bottom-up effect-summary propagation pass.
//
// Design decisions, chosen to match the rest of the suite (precise on
// this codebase over sound in general):
//
//   - nodes are declared module functions and methods; stdlib callees
//     do not get nodes — their effects are classified syntactically at
//     the call site by classifyCall and become the caller's *direct*
//     facts;
//   - function literals are folded into their enclosing declaration:
//     a closure defined inside F contributes edges and direct facts to
//     F's node. This over-approximates (the literal might never run)
//     in exactly the direction the analyzers need;
//   - interface method calls fan out conservatively to the matching
//     method of every loaded concrete type implementing the interface;
//   - go / defer launches are ordinary edges with their own kind:
//     deferred calls propagate every effect (they run in-function),
//     goroutine launches propagate nothing but mark the caller as
//     allocating (the spawn itself);
//   - a reference to a function outside call position (a method value,
//     a function-typed struct field assignment) adds a "ref" edge —
//     the referencing function may invoke it later, so summaries flow.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Effect is one of the summarized behaviours a function can have or
// transitively reach.
type Effect int

// The effect lattice: four independent booleans.
const (
	EffAlloc  Effect = iota // heap allocation: make/append/new, boxing, allocating stdlib helpers, goroutine spawns
	EffFormat               // fmt formatting
	EffLock                 // mutex acquisition (sync.Mutex/RWMutex Lock family, sync.Once.Do)
	EffBlock                // channel ops outside escaping selects, WaitGroup/Cond waits, sleeps, I/O
	numEffects
)

// String names the effect as it appears in findings.
func (e Effect) String() string {
	switch e {
	case EffAlloc:
		return "allocates"
	case EffFormat:
		return "formats"
	case EffLock:
		return "acquires a lock"
	case EffBlock:
		return "blocks"
	}
	return "unknown"
}

// CGEdgeKind distinguishes how a call site invokes its target.
type CGEdgeKind int

// Edge kinds; see the package comment for propagation semantics.
const (
	EdgeCall  CGEdgeKind = iota // ordinary static call or concrete method call
	EdgeGo                      // go statement launch
	EdgeDefer                   // deferred call
	EdgeIface                   // interface dispatch, resolved to one implementing method
	EdgeRef                     // function referenced outside call position
)

// String renders the edge kind for tests and chain messages.
func (k CGEdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeGo:
		return "go"
	case EdgeDefer:
		return "defer"
	case EdgeIface:
		return "iface"
	case EdgeRef:
		return "ref"
	}
	return "?"
}

// CGEdge is one resolved call (or reference) from a declared function
// to another.
type CGEdge struct {
	Caller *CGNode
	Callee *CGNode
	Kind   CGEdgeKind
	// Site is the position of the call or reference.
	Site token.Pos
}

// CGNode is one declared module function or method.
type CGNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Out lists the node's outgoing edges in source order.
	Out []*CGEdge
	// In lists the incoming edges (filled after all Out lists exist).
	In []*CGEdge

	sum summary
}

// summary is the node's effect summary after propagation.
type summary struct {
	has [numEffects]bool
	// via is the edge through which a transitive effect arrived; nil
	// when the effect is the function's own.
	via [numEffects]*CGEdge
	// direct describes the syntactic origin of an own effect.
	direct [numEffects]string
}

// Has reports whether the node's summary carries the effect (own or
// reached through any call chain).
func (n *CGNode) Has(e Effect) bool { return n.sum.has[e] }

// Chain renders the call chain from this node to the origin of the
// effect, e.g. "Submit -> aggregator.submittedScan: sync.Mutex.Lock".
// It returns "" when the node does not have the effect.
func (n *CGNode) Chain(e Effect) string {
	if !n.sum.has[e] {
		return ""
	}
	var parts []string
	cur := n
	for {
		parts = append(parts, cgName(cur.Fn))
		edge := cur.sum.via[e]
		if edge == nil {
			return strings.Join(parts, " -> ") + ": " + cur.sum.direct[e]
		}
		cur = edge.Callee
		if len(parts) > 32 { // cycle guard; SCCs make via-chains finite in practice
			return strings.Join(parts, " -> ")
		}
	}
}

// cgName renders a function for chain messages: "pkg.Func" for package
// functions, "Recv.Method" for methods.
func cgName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// CallGraph is the module-wide graph.
type CallGraph struct {
	nodes map[*types.Func]*CGNode
	// funcs lists the nodes in deterministic order (package path, then
	// declaration position), the iteration order of the propagation
	// fixpoint — so witness chains are stable across runs.
	funcs []*CGNode
}

// Node returns the graph node of a declared module function, or nil
// for external / undeclared functions.
func (g *CallGraph) Node(fn *types.Func) *CGNode {
	if fn == nil {
		return nil
	}
	return g.nodes[fn]
}

// Graph returns the call graph over every package loaded so far,
// building (and memoizing) it on first use. Loading more packages
// invalidates the memo, so fixture tests that share a module see a
// graph covering their own package.
func (m *Module) Graph() *CallGraph {
	m.graphMu.Lock()
	defer m.graphMu.Unlock()
	if m.graph != nil && m.graphGen == len(m.pkgs) {
		return m.graph
	}
	m.graph = buildCallGraph(m)
	m.graphGen = len(m.pkgs)
	return m.graph
}

func buildCallGraph(m *Module) *CallGraph {
	g := &CallGraph{nodes: make(map[*types.Func]*CGNode)}

	paths := make([]string, 0, len(m.pkgs))
	for p := range m.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	// Pass 0: nodes for every declared function, and the concrete named
	// types used for interface resolution.
	var concrete []*types.Named
	for _, path := range paths {
		pkg := m.pkgs[path]
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				g.nodes[fn] = &CGNode{Fn: fn, Decl: fd, Pkg: pkg}
				g.funcs = append(g.funcs, g.nodes[fn])
			}
		}
		scope := pkg.Types.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			concrete = append(concrete, named)
		}
	}

	// Pass 1: edges and direct facts.
	for _, n := range g.funcs {
		addEdges(g, n, concrete)
		directFacts(n)
	}
	for _, n := range g.funcs {
		for _, e := range n.Out {
			e.Callee.In = append(e.Callee.In, e)
		}
	}

	// Pass 2: bottom-up propagation to fixpoint. The lattice is four
	// booleans per node, monotone, so iteration terminates quickly; the
	// deterministic sweep order makes the recorded witness edges stable.
	for changed := true; changed; {
		changed = false
		for _, n := range g.funcs {
			for _, e := range n.Out {
				for eff := Effect(0); eff < numEffects; eff++ {
					if !e.Callee.sum.has[eff] || n.sum.has[eff] {
						continue
					}
					if !propagates(e.Kind, eff) {
						continue
					}
					n.sum.has[eff] = true
					n.sum.via[eff] = e
					changed = true
				}
			}
		}
	}
	return g
}

// propagates reports whether an effect flows caller-ward across an
// edge of the given kind. Goroutine launches are asynchronous: the
// spawned body's effects happen off the caller's path (the spawn
// itself was already recorded as an allocation by directFacts).
func propagates(k CGEdgeKind, e Effect) bool {
	return k != EdgeGo
}

// addEdges walks one declaration (function literals folded in) and
// records every resolved call, launch, and function reference.
func addEdges(g *CallGraph, n *CGNode, concrete []*types.Named) {
	pkg := n.Pkg
	// callFunIdents marks the identifiers consumed as the Fun of a
	// call, so the reference scan below skips them.
	callFunIdents := make(map[*ast.Ident]bool)

	edgeTo := func(fn *types.Func, kind CGEdgeKind, site token.Pos) {
		callee := g.nodes[fn]
		if callee == nil {
			return // external or undeclared; classified via directFacts
		}
		e := &CGEdge{Caller: n, Callee: callee, Kind: kind, Site: site}
		n.Out = append(n.Out, e)
	}

	// resolveCall records edges for one call expression. kind is
	// EdgeCall for plain calls, EdgeGo/EdgeDefer for launches.
	resolveCall := func(call *ast.CallExpr, kind CGEdgeKind) {
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			callFunIdents[fun] = true
			if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
				edgeTo(fn, kind, call.Pos())
			}
		case *ast.SelectorExpr:
			callFunIdents[fun.Sel] = true
			if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
				if types.IsInterface(sel.Recv()) {
					ifaceKind := EdgeIface
					if kind != EdgeCall {
						ifaceKind = kind
					}
					for _, fn := range implementersOf(sel.Recv(), sel.Obj().Name(), concrete) {
						edgeTo(fn, ifaceKind, call.Pos())
					}
					return
				}
				if fn, ok := sel.Obj().(*types.Func); ok {
					edgeTo(fn, kind, call.Pos())
				}
				return
			}
			// Qualified identifier (pkg.Func) or method expression.
			if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
				edgeTo(fn, kind, call.Pos())
			}
		}
	}

	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.GoStmt:
			resolveCall(x.Call, EdgeGo)
			// Arguments of the launched call are evaluated at the go
			// statement; nested calls inside them resolve as ordinary
			// CallExprs when the walk reaches them.
		case *ast.DeferStmt:
			resolveCall(x.Call, EdgeDefer)
		case *ast.CallExpr:
			// Skip the ones already claimed by go/defer: Inspect visits
			// them again as plain CallExprs.
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && callFunIdents[id] {
				return true
			}
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && callFunIdents[sel.Sel] {
				return true
			}
			resolveCall(x, EdgeCall)
		}
		return true
	})

	// Reference scan: any remaining identifier resolving to a declared
	// function is a value reference (method value, function-typed field,
	// callback argument).
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok || callFunIdents[id] {
			return true
		}
		if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
			edgeTo(fn, EdgeRef, id.Pos())
		}
		return true
	})
}

// implementersOf returns, deterministically ordered, the concrete
// methods named name of every loaded type implementing the interface.
func implementersOf(iface types.Type, name string, concrete []*types.Named) []*types.Func {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok || it.NumMethods() == 0 {
		return nil // interface{} / any: no dispatch information
	}
	var out []*types.Func
	for _, named := range concrete {
		ptr := types.NewPointer(named)
		if !types.Implements(named, it) && !types.Implements(ptr, it) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), name)
		if fn, ok := obj.(*types.Func); ok {
			out = append(out, fn)
		}
	}
	return out
}

// directFacts computes the node's own effects from its body syntax:
// allocation builtins and boxing, fmt calls, stdlib lock/block calls,
// channel operations, and goroutine spawns.
func directFacts(n *CGNode) {
	pkg := n.Pkg
	set := func(e Effect, desc string) {
		if !n.sum.has[e] {
			n.sum.has[e] = true
			n.sum.direct[e] = desc
		}
	}
	exempt := exemptCommOps(n.Decl.Body)
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.GoStmt:
			set(EffAlloc, "go statement spawns a goroutine")
		case *ast.SendStmt:
			if !exempt[x] {
				set(EffBlock, "channel send")
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !exempt[x] {
				set(EffBlock, "channel receive")
			}
		case *ast.RangeStmt:
			if t := pkg.Info.Types[x.X].Type; t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					set(EffBlock, "range over channel")
				}
			}
		case *ast.SelectStmt:
			if !selectHasEscape(x) {
				set(EffBlock, "select without default")
			}
		case *ast.CallExpr:
			if eff, desc, ok := classifyCall(pkg, x); ok {
				set(eff, desc)
			}
		}
		return true
	})
}

// exemptCommOps marks the send/receive operations that appear as the
// comm clause of a select offering a non-blocking escape (a default
// case or a ctx.Done() receive): those do not block the function.
func exemptCommOps(body ast.Node) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	ast.Inspect(body, func(node ast.Node) bool {
		sel, ok := node.(*ast.SelectStmt)
		if !ok || !selectHasEscape(sel) {
			return true
		}
		for _, cl := range sel.Body.List {
			cc := cl.(*ast.CommClause)
			if cc.Comm == nil {
				continue
			}
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				out[comm] = true
			case *ast.ExprStmt:
				if u, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok {
					out[u] = true
				}
			case *ast.AssignStmt:
				for _, r := range comm.Rhs {
					if u, ok := ast.Unparen(r).(*ast.UnaryExpr); ok {
						out[u] = true
					}
				}
			}
		}
		return true
	})
	return out
}

// selectHasEscape reports whether a select offers a non-blocking
// escape: a default clause, or a receive from some Done() channel
// (cancellation makes the wait bounded by the caller's context).
func selectHasEscape(sel *ast.SelectStmt) bool {
	doneRecv := func(e ast.Expr) bool {
		u, ok := ast.Unparen(e).(*ast.UnaryExpr)
		if !ok || u.Op != token.ARROW {
			return false
		}
		call, ok := ast.Unparen(u.X).(*ast.CallExpr)
		if !ok {
			return false
		}
		s, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		return ok && s.Sel.Name == "Done"
	}
	for _, cl := range sel.Body.List {
		cc := cl.(*ast.CommClause)
		if cc.Comm == nil {
			return true
		}
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt:
			if doneRecv(comm.X) {
				return true
			}
		case *ast.AssignStmt:
			for _, r := range comm.Rhs {
				if doneRecv(r) {
					return true
				}
			}
		}
	}
	return false
}

// Allocating stdlib helpers, keyed by package path suffix then
// function name. Deliberately small: the table lists the helpers this
// codebase's hot paths could plausibly reach, not all of the stdlib.
var allocFuncs = map[string]map[string]bool{
	"sort":    {"Slice": true, "SliceStable": true, "Sort": true, "Stable": true, "Strings": true, "Ints": true, "Float64s": true},
	"strings": {"Join": true, "Repeat": true, "Split": true, "Fields": true, "ToLower": true, "ToUpper": true, "ReplaceAll": true},
	"strconv": {"Itoa": true, "FormatInt": true, "FormatFloat": true, "FormatBool": true, "Quote": true},
	"errors":  {"New": true},
}

// fmtFormatters are the fmt functions classified as formatting (they
// also allocate, but Format is the more precise complaint).
var fmtFormatters = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
	"Fprintf": true, "Fprint": true, "Fprintln": true,
	"Printf": true, "Print": true, "Println": true, "Appendf": true,
}

// blockFuncs lists blocking stdlib package functions by package path
// suffix and name; blockPkgs lists packages whose every function and
// method counts as blocking I/O.
var blockFuncs = map[string]map[string]bool{
	"time": {"Sleep": true},
	"io":   {"Copy": true, "CopyN": true, "CopyBuffer": true, "ReadAll": true},
	"os": {"Open": true, "OpenFile": true, "Create": true, "ReadFile": true, "WriteFile": true,
		"Remove": true, "RemoveAll": true, "Rename": true, "Mkdir": true, "MkdirAll": true,
		"ReadDir": true, "Stat": true},
}

var blockPkgs = map[string]bool{"net": true, "net/http": true, "os/exec": true}

// classifyCall classifies one call expression against the stdlib
// effect tables plus the allocation builtins and interface boxing. It
// reports the effect, a human-readable description, and whether the
// call matched anything.
func classifyCall(pkg *Package, call *ast.CallExpr) (Effect, string, bool) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "append", "new":
				return EffAlloc, b.Name(), true
			}
			return 0, "", false
		}
	}
	// Conversions to interface types box their operand.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface && len(call.Args) == 1 {
			if at := pkg.Info.Types[call.Args[0]].Type; at != nil {
				if _, already := at.Underlying().(*types.Interface); !already {
					return EffAlloc, "conversion to interface", true
				}
			}
		}
		return 0, "", false
	}
	// Method calls on sync / blocking-package types.
	if selExpr, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if sel, ok := pkg.Info.Selections[selExpr]; ok && sel.Kind() == types.MethodVal {
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
				recvPkg := named.Obj().Pkg().Path()
				name := selExpr.Sel.Name
				if recvPkg == "sync" {
					switch named.Obj().Name() {
					case "Mutex", "RWMutex":
						switch name {
						case "Lock", "RLock", "TryLock", "TryRLock":
							return EffLock, "sync." + named.Obj().Name() + "." + name, true
						}
					case "Once":
						if name == "Do" {
							return EffLock, "sync.Once.Do", true
						}
					case "WaitGroup":
						if name == "Wait" {
							return EffBlock, "sync.WaitGroup.Wait", true
						}
					case "Cond":
						if name == "Wait" {
							return EffBlock, "sync.Cond.Wait", true
						}
					}
					return 0, "", false
				}
				if blockPkgs[recvPkg] || recvPkg == "os" {
					return EffBlock, recvPkg + " " + named.Obj().Name() + "." + name, true
				}
			}
			return 0, "", false
		}
	}
	// Package functions.
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return 0, "", false
	}
	p := fn.Pkg().Path()
	name := fn.Name()
	if (p == "fmt" || strings.HasSuffix(p, "/fmt")) && fmtFormatters[name] {
		return EffFormat, "fmt." + name, true
	}
	if blockPkgs[p] {
		return EffBlock, p + "." + name, true
	}
	if tbl, ok := blockFuncs[p]; ok && tbl[name] {
		return EffBlock, p + "." + name, true
	}
	if tbl, ok := allocFuncs[p]; ok && tbl[name] {
		return EffAlloc, p + "." + name, true
	}
	return 0, "", false
}

// calleeTargets resolves the declared module functions a call can
// invoke: the static callee for plain and method calls, or the
// conservative implementer fan-out for interface dispatch. Calls
// through function values and to external functions resolve to nil.
func calleeTargets(g *CallGraph, pkg *Package, call *ast.CallExpr) []*CGNode {
	if selExpr, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if sel, ok := pkg.Info.Selections[selExpr]; ok && sel.Kind() == types.MethodVal && types.IsInterface(sel.Recv()) {
			// Interface dispatch: fan out over every graph node whose
			// receiver type implements the interface.
			var out []*CGNode
			it, ok := sel.Recv().Underlying().(*types.Interface)
			if !ok || it.NumMethods() == 0 {
				return nil
			}
			seen := make(map[*CGNode]bool)
			for _, n := range g.funcs {
				sig, _ := n.Fn.Type().(*types.Signature)
				if sig == nil || sig.Recv() == nil || n.Fn.Name() != sel.Obj().Name() {
					continue
				}
				rt := sig.Recv().Type()
				if types.Implements(rt, it) || types.Implements(types.NewPointer(rt), it) {
					if !seen[n] {
						seen[n] = true
						out = append(out, n)
					}
				}
			}
			return out
		}
	}
	fn := calleeFunc(pkg, call)
	if n := g.Node(fn); n != nil {
		return []*CGNode{n}
	}
	return nil
}
