// Package syncaccount cross-checks the deque implementations against
// the paper's synchronization-counting model (Lemmas 1-3): the
// instrumentation counters are the repo's evidence that LCWS owner
// operations are fence- and CAS-free while Chase-Lev pays a fence per
// push/pop, so the accounting calls themselves must be trustworthy.
// Two rules are enforced in lcws/internal/deque:
//
//  1. Every atomic CompareAndSwap is preceded, in the same function, by
//     a counters.CAS accounting call (Inc or Add). Accounting before
//     the attempt means aborted races are counted too, matching the
//     model's "CAS attempts" semantics.
//  2. Each deque method accounts exactly the event classes the counting
//     model assigns it: e.g. SplitDeque.TryPushBottom/PopBottom/Expose
//     must account neither Fence nor CAS (Lemma 1 — array growth
//     publishes with a plain pointer store), while PopPublicBottom must
//     account both (Lemma 2), and ChaseLev.TryPushBottom must account
//     a Fence.
//
// Test files are exempt: tests drive the deques through hand-built
// states and deliberately bypass the accounting contract.
package syncaccount

import (
	"go/ast"
	"go/types"
	"strings"

	"lcws/internal/analysis"
)

const (
	dequePkg    = "lcws/internal/deque"
	countersPkg = "lcws/internal/counters"
)

// rule says which synchronization events a method must and must not
// account, per the counting model in internal/counters/model.go.
type rule struct {
	mustFence, mustCAS     bool
	forbidFence, forbidCAS bool
}

// rules maps receiver type name -> method name -> accounting rule.
// Methods not listed are only subject to the CAS-ordering rule.
var rules = map[string]map[string]rule{
	"SplitDeque": {
		"PushBottom":    {forbidFence: true, forbidCAS: true}, // Lemma 1 (delegates to TryPushBottom)
		"TryPushBottom": {forbidFence: true, forbidCAS: true}, // Lemma 1: growth publishes with a plain store
		// SpillOldest reclaims via UnexposeAll (accounted there) and then
		// orders its age store against the publicBot store with one fence;
		// no thief CAS can target the bumped tag, so no CAS is spent.
		"SpillOldest":     {mustFence: true, forbidCAS: true},
		"PopBottom":       {forbidFence: true, forbidCAS: true}, // Lemma 1
		"Expose":          {forbidFence: true, forbidCAS: true}, // footnote 3
		"PopPublicBottom": {mustFence: true, mustCAS: true},     // Lemma 2
		"PopTop":          {mustCAS: true, forbidFence: true},   // Lemma 3
		"PopTopHalf":      {mustCAS: true, forbidFence: true},   // Lemma 3: batch rides the one claim CAS
		"UnexposeAll":     {mustFence: true, mustCAS: true},     // Lace reclaim
	},
	"ChaseLev": {
		// PushBottom delegates to TryPushBottom, which accounts the WS
		// push fence (release ordering on bot); growth itself publishes
		// with a plain pointer store and costs nothing extra.
		"TryPushBottom": {mustFence: true, forbidCAS: true},
		// SpillOldest is owner self-steal through PopTop: the fences and
		// CAS are accounted inside PopTop per call, not lexically here.
		"PopBottom": {mustFence: true, mustCAS: true},
		// popBottomBatch is the batch-mode owner pop PopBottom delegates
		// to: the usual store-load fence plus a tag-bump CAS on every pop
		// (WSBatchPopCAS), not just for the last element.
		"popBottomBatch": {mustFence: true, mustCAS: true},
		"PopTop":         {mustFence: true, mustCAS: true},
		// PopTopHalf costs the same as a single steal: the batch rides the
		// one fence + one CAS of the claim.
		"PopTopHalf": {mustFence: true, mustCAS: true},
	},
}

var Analyzer = &analysis.Analyzer{
	Name: "syncaccount",
	Doc: "check that deque synchronization operations and their counter accounting agree\n\n" +
		"The paper's claims rest on counting fences and CAS attempts; this analyzer " +
		"verifies every CompareAndSwap in internal/deque is preceded by a counters.CAS " +
		"accounting call and that each deque method accounts exactly the event classes " +
		"the counting model assigns to it.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if normalizePath(pass.Pkg.Path()) != dequePkg {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

// event is a synchronization event class named by the counting model.
type event string

const (
	evFence event = "Fence"
	evCAS   event = "CAS"
)

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Collect, in source order, the accounting calls and CAS attempts.
	type acct struct {
		ev  event
		pos ast.Node
	}
	var accts []acct
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch {
		case isAccountingCall(pass, call, sel):
			if ev, ok := eventArg(pass, call); ok {
				accts = append(accts, acct{ev, call})
			}
		case sel.Sel.Name == "CompareAndSwap" && analysis.IsAtomicType(pass.TypesInfo.TypeOf(sel.X)):
			// Rule 1: accounting must precede the attempt.
			ok := false
			for _, a := range accts {
				if a.ev == evCAS && a.pos.Pos() < call.Pos() {
					ok = true
					break
				}
			}
			if !ok {
				pass.Reportf(call.Pos(), "CompareAndSwap without a preceding counters.CAS accounting call in the same function")
			}
		}
		return true
	})

	// Rule 2: the method's accounted events must match the model.
	methods, ok := rules[recvTypeName(fd)]
	if !ok {
		return
	}
	r, ok := methods[fd.Name.Name]
	if !ok {
		return
	}
	name := recvTypeName(fd) + "." + fd.Name.Name
	seen := map[event]bool{}
	for _, a := range accts {
		seen[a.ev] = true
		if (a.ev == evFence && r.forbidFence) || (a.ev == evCAS && r.forbidCAS) {
			pass.Reportf(a.pos.Pos(), "%s must not account counters.%s: the counting model makes this operation %s-free", name, a.ev, strings.ToLower(string(a.ev)))
		}
	}
	if r.mustFence && !seen[evFence] {
		pass.Reportf(fd.Name.Pos(), "%s must account counters.Fence per the counting model, but accounts none", name)
	}
	if r.mustCAS && !seen[evCAS] {
		pass.Reportf(fd.Name.Pos(), "%s must account counters.CAS per the counting model, but accounts none", name)
	}
}

// isAccountingCall reports whether call is counters.Worker.Inc or .Add.
func isAccountingCall(pass *analysis.Pass, call *ast.CallExpr, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Inc" && sel.Sel.Name != "Add" {
		return false
	}
	n := analysis.NamedOf(pass.TypesInfo.TypeOf(sel.X))
	return n != nil && n.Obj().Name() == "Worker" &&
		n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == countersPkg
}

// eventArg resolves the first argument of an accounting call to a
// Fence/CAS event constant; other events (TaskPushed, Exposure, ...)
// are outside the synchronization model.
func eventArg(pass *analysis.Pass, call *ast.CallExpr) (event, bool) {
	if len(call.Args) == 0 {
		return "", false
	}
	sel, ok := call.Args[0].(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	c, ok := obj.(*types.Const)
	if !ok || c.Pkg() == nil || c.Pkg().Path() != countersPkg {
		return "", false
	}
	switch c.Name() {
	case "Fence":
		return evFence, true
	case "CAS":
		return evCAS, true
	}
	return "", false
}

// recvTypeName returns the receiver's type name, unwrapping pointers
// and generic instantiations, or "" for non-methods.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// normalizePath strips cmd/go's test-variant suffix so the analyzer
// recognises the deque package under go vet's test builds.
func normalizePath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}
