// Package analyzers holds the repo's custom static-analysis passes — the
// Go-source counterpart of the HPL policy verifier. Where internal/hpl/verify
// proves policy programs safe before they enter the simulated kernel, this
// package proves the kernel sources keep their own load-bearing invariants
// at build time, on resolved types rather than identifier spelling:
//
//   - determinism: simulation packages must not read the wall clock
//     (wallclock) or the global math/rand state (globalrand);
//   - the substrate seam: no package outside internal/substrate may name the
//     concrete simulation clock (simclock);
//   - the error taxonomy: kernel packages return typed errors, never a bare
//     fmt.Errorf without %w or an inline errors.New (errtype);
//   - kernel isolation: no package-level mutable counters or sync/atomic
//     state (globalstate);
//   - the client seam: core.Loop is constructed only inside internal/ and
//     the facade (loopseam);
//   - the single-writer actor: kernel state must not escape a Loop.Call
//     closure into a goroutine, package variable, or longer-lived struct
//     (loopcapture), and no blocking call may be statically reachable from
//     a command body executed on the loop (blockinloop);
//   - the zero-allocation contract: //hipec:hotpath functions must not
//     index maps (mapinloop) or perform the allocation shapes only types
//     reveal — interface boxing, capturing closures, append without
//     capacity, string concatenation (hotalloc);
//   - refuse-before-allocate: in the wire and server packages, a length
//     decoded from the network must pass a bound check before it reaches
//     make (wiretaint).
//
// The engine (see load.go) type-checks whole packages with go/parser +
// go/types and the stdlib source importer — no module downloads, no
// x/tools — so the passes match on package paths and resolved objects:
// renamed imports, aliased types and cross-package values are all visible.
// Findings are suppressed inline with `//hipec:vet-ignore <pass> -- <reason>`
// (see directives.go); the reason is mandatory and unused suppressions are
// themselves findings.
//
// The passes are wired into `go test ./internal/analyzers` (fixture trees
// under testdata/ plus a walk of the real source tree) and the cmd/hipecvet
// runner for CI, which also emits machine-readable JSON with -json.
package analyzers

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one analyzer hit, formatted like a compiler diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Msg      string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Msg)
}

// MarshalJSON renders the finding for the -json CI artifact.
func (f Finding) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		File string `json:"file"`
		Line int    `json:"line"`
		Col  int    `json:"col"`
		Pass string `json:"pass"`
		Msg  string `json:"msg"`
	}{f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Msg})
}

// reportFunc is the callback passes emit findings through.
type reportFunc func(ast.Node, string, ...any)

// pass is one analysis over a single type-checked package.
type pass struct {
	name string
	// scope decides whether the pass runs for a repo-relative package path.
	scope func(pkgPath string) bool
	run   func(*Pkg, reportFunc)
}

func internalOnly(pkgPath string) bool { return strings.HasPrefix(pkgPath, "internal") }
func wholeTree(string) bool            { return true }
func wireScope(pkgPath string) bool {
	return pkgPath == "internal/wire" || pkgPath == "internal/server"
}

// passes is the registry, in documentation order.
var passes = []pass{
	{"wallclock", internalOnly, checkWallClock},
	{"simclock", internalOnly, checkSimClock},
	{"globalrand", internalOnly, checkGlobalRand},
	{"errtype", internalOnly, checkErrType},
	{"globalstate", internalOnly, checkGlobalState},
	{"mapinloop", wholeTree, checkMapInLoop},
	{"loopseam", wholeTree, checkLoopSeam},
	{"loopcapture", wholeTree, checkLoopCapture},
	{"blockinloop", wholeTree, checkBlockInLoop},
	{"hotalloc", wholeTree, checkHotAlloc},
	{"wiretaint", wireScope, checkWireTaint},
}

// knownPasses validates vet-ignore directives (the meta pass itself cannot
// be suppressed).
var knownPasses = func() map[string]bool {
	m := map[string]bool{}
	for _, p := range passes {
		m[p.name] = true
	}
	return m
}()

// kernelPkgs are the packages whose errors must carry the hiperr taxonomy
// and which must stay free of package-level mutable state.
var kernelPkgs = map[string]bool{
	"internal/core":    true,
	"internal/vm":      true,
	"internal/mem":     true,
	"internal/emm":     true,
	"internal/disk":    true,
	"internal/pageout": true,
	"internal/machipc": true,
	"internal/store":   true,
}

// wallClockExempt may measure real time: the benchmark harness exists to
// report wall-clock numbers, and the substrate package owns the realtime
// backend (RealClock is built from time.Now/Sleep by design).
var wallClockExempt = map[string]bool{
	"internal/bench":     true,
	"internal/substrate": true,
	// The network layer and its demo harness live on the realtime substrate
	// by definition: batch windows are real timers and throughput is wall
	// time.
	"internal/server": true,
	"internal/demo":   true,
}

// simClockExempt may hold concrete simulation-clock references: the
// substrate package IS the seam — it wraps *simtime.Clock behind
// substrate.Clock and is the one place allowed to name it.
var simClockExempt = map[string]bool{
	"internal/substrate": true,
}

// analyze runs every in-scope pass over one package and filters the result
// through the package's vet-ignore directives.
func (e *Engine) analyze(p *Pkg) []Finding {
	var raw []Finding
	for _, ps := range passes {
		if !ps.scope(p.Path) {
			continue
		}
		name := ps.name
		report := func(n ast.Node, format string, args ...any) {
			raw = append(raw, Finding{
				Pos:      e.fset.Position(n.Pos()),
				Analyzer: name,
				Msg:      fmt.Sprintf(format, args...),
			})
		}
		ps.run(p, report)
	}
	return applyDirectives(p, raw)
}

// Run analyzes every package under root/internal, root/cmd and
// root/examples, plus the root package itself, and returns the findings
// sorted by position. testdata trees (analyzer fixtures) are skipped, as
// the Go toolchain skips them.
func Run(root string) ([]Finding, error) {
	e := NewEngine(root)
	rels, err := discover(root)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, rel := range rels {
		p, err := e.load(rel)
		if err != nil {
			return nil, err
		}
		findings = append(findings, e.analyze(p)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return findings, nil
}

// discover lists the repo-relative package directories to analyze.
func discover(root string) ([]string, error) {
	hasGo := func(dir string) bool {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return false
		}
		for _, ent := range ents {
			n := ent.Name()
			if !ent.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				return true
			}
		}
		return false
	}
	var rels []string
	if hasGo(root) {
		rels = append(rels, ".")
	}
	for _, top := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if d.Name() == "testdata" {
				return fs.SkipDir
			}
			if hasGo(path) {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				rels = append(rels, filepath.ToSlash(rel))
			}
			return nil
		})
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
	}
	return rels, nil
}
