package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// The blockinloop pass proves that command bodies executed on the kernel's
// serialized loop cannot stall every other client: no blocking call —
// time.Sleep, os file I/O, net operations, a provably-unbuffered channel
// send — may be statically reachable from a closure passed to Loop.Call or
// Loop.Async. Reachability is chased through the module's own functions
// using the engine's cross-package declaration index; a call through an
// interface (substrate.Clock's backend, substrate.Store) is unresolvable
// and deliberately breaks the chain — that is the design contract: anything
// that may genuinely block must sit behind the substrate seam, where the
// sim backend replaces it with virtual time and the realtime backend owns
// the consequences.

// blockDepthLimit caps call-chain depth; deeper chains fail open.
const blockDepthLimit = 40

// osFileMethods are the *os.File methods that perform real I/O.
var osFileMethods = map[string]bool{
	"Read": true, "ReadAt": true, "ReadFrom": true, "ReadDir": true,
	"Write": true, "WriteAt": true, "WriteString": true, "WriteTo": true,
	"Seek": true, "Sync": true, "Truncate": true, "Chmod": true,
}

// osPkgFuncs are the os package functions that touch the filesystem.
var osPkgFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true,
	"Remove": true, "RemoveAll": true, "Rename": true, "Truncate": true,
	"Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"Stat": true, "Lstat": true, "Chmod": true, "Chtimes": true, "Link": true,
	"Symlink": true, "ReadLink": true,
}

// storeIOMethods are the concrete page-store methods that perform (or may
// perform) real I/O. Calling them on a concrete backend from inside a loop
// closure is flagged even when the particular backend is memory-backed:
// the seam contract says loop code reaches storage only through the
// substrate.Store interface, dispatched on whatever the kernel was built
// with. Only methods declared in the filestore and store packages match:
// DeletePage, Sync and Close reached through substrate.Store (or through
// store.Backend, which embeds it) are substrate's interface methods, the
// seam where the chain deliberately breaks.
var storeIOMethods = map[string]bool{
	"WritePage": true, "ReadPage": true, "DeletePage": true,
	"Sync": true, "Close": true,
}

// blockingCall classifies fn as a blocking leaf, returning a display name
// ("" = not blocking).
func blockingCall(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "hipec/internal/disk/filestore", "hipec/internal/store":
		if _, recvName, ok := recvNamed(fn); ok && storeIOMethods[fn.Name()] {
			short := fn.Pkg().Path()
			short = short[strings.LastIndex(short, "/")+1:]
			return "(" + short + "." + recvName + ")." + fn.Name()
		}
		return ""
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	case "os":
		if recvPkg, recvName, ok := recvNamed(fn); ok {
			if recvPkg == "os" && recvName == "File" && osFileMethods[fn.Name()] {
				return "(*os.File)." + fn.Name()
			}
			return ""
		}
		if osPkgFuncs[fn.Name()] {
			return "os." + fn.Name()
		}
	case "net":
		if _, recvName, ok := recvNamed(fn); ok {
			return "net." + recvName + "." + fn.Name()
		}
		return "net." + fn.Name()
	}
	return ""
}

// funcDisplay names a function for chain messages: pkg.Func or
// (pkg.Recv).Method.
func funcDisplay(fn *types.Func) string {
	if pkgPath, recvName, ok := recvNamed(fn); ok {
		short := pkgPath[strings.LastIndex(pkgPath, "/")+1:]
		return "(" + short + "." + recvName + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		short := fn.Pkg().Path()
		short = short[strings.LastIndex(short, "/")+1:]
		return short + "." + fn.Name()
	}
	return fn.Name()
}

// blockChain reports the call chain from fn to a blocking leaf, or nil.
// Verdicts are memoized on the engine; in-progress functions (recursion)
// report nil for the inner frame.
func (e *Engine) blockChain(fn *types.Func, depth int, stack map[*types.Func]bool) []string {
	if chain, ok := e.blockMemo[fn]; ok {
		return chain
	}
	if depth > blockDepthLimit || stack[fn] {
		return nil
	}
	site, ok := e.funcs[fn]
	if !ok {
		return nil // no body in the module: interface method or stdlib — chain breaks
	}
	stack[fn] = true
	var chain []string
	site.pkg.scanBlocking(site.decl.Body, site.decl.Body, depth, stack, func(_ ast.Node, sub []string) {
		if chain == nil {
			chain = append([]string{funcDisplay(fn)}, sub...)
		}
	})
	delete(stack, fn)
	e.blockMemo[fn] = chain
	return chain
}

// scanBlocking walks body (skipping spawned goroutines — they do not hold
// the engine goroutine) and invokes found for each blocking shape: a
// blocking leaf call, a module call whose chain reaches one, or an
// unbuffered channel send. enclosing is the function body used to resolve
// channel buffering.
func (p *Pkg) scanBlocking(body ast.Node, enclosing ast.Node, depth int, stack map[*types.Func]bool, found func(n ast.Node, chain []string)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // spawned work blocks its own goroutine, not the loop
		case *ast.CallExpr:
			fn := p.funcFor(n)
			if fn == nil {
				return true // func value / conversion / builtin: fail open
			}
			if leaf := blockingCall(fn); leaf != "" {
				found(n, []string{leaf})
				return true
			}
			if chain := p.eng.blockChain(fn, depth+1, stack); chain != nil {
				found(n, chain)
			}
		case *ast.SendStmt:
			if p.provablyUnbuffered(n.Chan, enclosing) {
				found(n, []string{"send on unbuffered channel"})
			}
		case *ast.SelectStmt:
			// Sends under select are guarded by the select's readiness
			// semantics (a default arm makes them non-blocking; without one
			// the select parks, which is a deliberate wait, not an
			// accidental one). Calls inside the bodies still count.
			for _, clause := range n.Body.List {
				cc := clause.(*ast.CommClause)
				for _, s := range cc.Body {
					p.scanBlocking(s, enclosing, depth, stack, found)
				}
			}
			return false
		}
		return true
	})
}

// provablyUnbuffered reports whether ch is a channel variable every visible
// initialization of which is make(chan T) with no capacity. Unresolvable
// channels (parameters, fields, cross-package values) fail open.
func (p *Pkg) provablyUnbuffered(ch ast.Expr, enclosing ast.Node) bool {
	id, ok := ast.Unparen(ch).(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := p.objectOf(id).(*types.Var)
	if !ok {
		return false
	}
	verdict := false
	seen := false
	consider := func(rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !p.isBuiltin(call, "make") {
			seen, verdict = true, false // initialized some other way: fail open
			return
		}
		unbuffered := len(call.Args) == 1
		if !seen {
			verdict = unbuffered
		} else {
			verdict = verdict && unbuffered
		}
		seen = true
	}
	scan := func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					lid, ok := lhs.(*ast.Ident)
					if !ok || p.objectOf(lid) != obj || i >= len(n.Rhs) {
						continue
					}
					consider(n.Rhs[i])
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if p.objectOf(name) == obj && i < len(n.Values) {
						consider(n.Values[i])
					}
				}
			}
			return true
		})
	}
	scan(enclosing)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok {
				scan(gd)
			}
		}
	}
	return seen && verdict
}

// checkBlockInLoop flags blocking work statically reachable from Loop
// command closures.
func checkBlockInLoop(p *Pkg, report reportFunc) {
	for _, lc := range loopClosures(p) {
		stack := map[*types.Func]bool{}
		p.scanBlocking(lc.lit.Body, lc.lit.Body, 0, stack, func(n ast.Node, chain []string) {
			report(n, "blocking call reachable from a Loop command closure (stalls every client of the loop): %s", strings.Join(chain, " -> "))
		})
	}
}
