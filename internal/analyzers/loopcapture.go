package analyzers

import (
	"go/ast"
	"go/types"
)

// The loopcapture pass proves the single-writer actor invariant statically.
// core.Loop serializes every kernel mutation onto one engine goroutine:
// closures passed to Loop.Call / Loop.Async receive the *core.Kernel for the
// duration of the call and must not let it — or the other single-writer
// structures, *vm.System and the per-connection *core.CacheSession — escape
// that window. An escape into a spawned goroutine, a package-level variable,
// a channel, or a struct that outlives the call is exactly the bug -race
// can only catch when a test happens to interleave it; this pass rejects the
// shape outright.

// guardedTypes are the single-writer structures that must stay inside a
// loop closure, keyed by "pkgpath.Name".
var guardedTypes = map[string]string{
	"hipec/internal/core.Kernel":       "*core.Kernel",
	"hipec/internal/core.CacheSession": "*core.CacheSession",
	"hipec/internal/vm.System":         "*vm.System",
	// Concrete page stores are loop-confined single-writer state too: a
	// store handle that escapes the closure invites unserialized I/O on
	// buffers the loop is still using. (The substrate.Store interface is
	// the sanctioned way to hand a store around — before the loop starts.)
	"hipec/internal/disk/filestore.Store": "*filestore.Store",
	"hipec/internal/store.Tiered":         "*store.Tiered",
	"hipec/internal/store.Sharded":        "*store.Sharded",
}

// guardName reports the display name of a guarded type, or "" when t is not
// guarded. Pointers unwrap; containers of guarded values (slices, maps) are
// guarded too — storing a slice of kernels is still storing kernels.
func guardName(t types.Type) string {
	if t == nil {
		return ""
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		if n := guardName(u.Elem()); n != "" {
			return n
		}
	case *types.Map:
		if n := guardName(u.Elem()); n != "" {
			return n
		}
	case *types.Chan:
		if n := guardName(u.Elem()); n != "" {
			return n
		}
	}
	pkgPath, name, ok := namedType(t)
	if !ok {
		return ""
	}
	return guardedTypes[pkgPath+"."+name]
}

// loopClosure is one func literal passed to (*core.Loop).Call or Async,
// with the call node for reporting.
type loopClosure struct {
	call *ast.CallExpr
	lit  *ast.FuncLit
}

// loopClosures finds every function literal handed to the loop's Call/Async
// mailbox methods in the package.
func loopClosures(p *Pkg) []loopClosure {
	var out []loopClosure
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := p.funcFor(call)
			if fn == nil || (fn.Name() != "Call" && fn.Name() != "Async") {
				return true
			}
			pkgPath, recvName, ok := recvNamed(fn)
			if !ok || pkgPath != "hipec/internal/core" || recvName != "Loop" {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					out = append(out, loopClosure{call: call, lit: lit})
				}
			}
			return true
		})
	}
	return out
}

// declaredInside reports whether obj's declaration lies within the closure
// body (including its parameters).
func declaredInside(obj types.Object, lit *ast.FuncLit) bool {
	return obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()
}

// storesGuarded reports the guarded type a value expression carries into an
// assignment: its own type, or — for composite literals — any element's.
func (p *Pkg) storesGuarded(e ast.Expr) string {
	e = ast.Unparen(e)
	if name := guardName(p.exprType(e)); name != "" {
		return name
	}
	if comp, ok := e.(*ast.CompositeLit); ok {
		for _, elt := range comp.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if name := p.storesGuarded(elt); name != "" {
				return name
			}
		}
	}
	if un, ok := e.(*ast.UnaryExpr); ok {
		return p.storesGuarded(un.X)
	}
	return ""
}

// checkLoopCapture inspects every Loop.Call/Async closure for kernel-state
// escapes.
func checkLoopCapture(p *Pkg, report reportFunc) {
	for _, lc := range loopClosures(p) {
		lit := lc.lit
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				// Everything the spawned goroutine can see — the call's
				// function, its arguments, a closure's whole body — runs
				// off the engine goroutine.
				ast.Inspect(n.Call, func(m ast.Node) bool {
					id, ok := m.(*ast.Ident)
					if !ok {
						return true
					}
					obj, isVar := p.objectOf(id).(*types.Var)
					if !isVar {
						return true
					}
					if name := guardName(obj.Type()); name != "" {
						report(n, "%s %q escapes into a goroutine spawned inside a Loop closure; the kernel is single-writer — only the engine goroutine may touch it", name, id.Name)
						return false
					}
					return true
				})
			case *ast.AssignStmt:
				p.checkGuardedAssign(n, lit, report)
			case *ast.SendStmt:
				if name := p.storesGuarded(n.Value); name != "" {
					report(n, "%s sent on a channel from inside a Loop closure; kernel state must not leave the engine goroutine", name)
				}
			}
			return true
		})
	}
}

// checkGuardedAssign flags assignments inside a loop closure that store a
// guarded value anywhere that outlives the call: a package-level variable,
// or a variable (or field/element of one) declared outside the closure.
func (p *Pkg) checkGuardedAssign(as *ast.AssignStmt, lit *ast.FuncLit, report reportFunc) {
	// Multi-value forms (x, y := f()) carry non-guarded tuples in this
	// codebase; pair positionally and fail open on length mismatch.
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		name := p.storesGuarded(as.Rhs[i])
		if name == "" {
			continue
		}
		base := baseIdent(lhs)
		if base == nil || base.Name == "_" {
			continue
		}
		obj, ok := p.objectOf(base).(*types.Var)
		if !ok {
			continue
		}
		switch {
		case obj.Parent() == p.Types.Scope():
			report(as, "%s stored in package-level variable %q from inside a Loop closure; kernel state must not outlive the call", name, base.Name)
		case !declaredInside(obj, lit):
			report(as, "%s stored in %q, which outlives the Loop closure; kernel state must not escape the call", name, base.Name)
		}
	}
}
