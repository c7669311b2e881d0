// Package owneronly verifies the central usage contract of the LCWS
// worker's owner-only state.
//
// The split deque's owner-side operations (PushBottom, TryPushBottom,
// SpillOldest, PopBottom, PopPublicBottom, Expose, UnexposeAll) are
// synchronization-free (growth and spilling publish their results with
// single release stores but are still single-writer protocols) and
// therefore only safe when invoked by the deque's single owner. In this
// codebase the owner is the Worker whose dq field holds the deque — and
// whose split field holds the same deque typed as the split deque (nil
// under WS), for the split-only operations — so every owner-only call
// must have the shape w.dq.Method(...) or w.split.Method(...) where w is
// the receiver of an enclosing Worker method, outside any function
// literal (a closure could outlive or escape the owner's loop).
// Thief-safe operations (PopTop, HasTwoTasks, IsEmpty, PrivateSize,
// PublicSize) may be called on any worker's deque, which is exactly how
// stealOnce and notify use a victim's dq and split. The batched and
// relaxed steal entry points ride the same split: PopTopHalf claims
// with a CAS, TakeTopRelaxed/TakeTopHalfRelaxed with a per-thief claim
// cursor, and all are thief-safe; HasPublicWork is the racy read the
// parking lot's pre-park and wake checks run against arbitrary victims.
//
// The per-worker task freelist (the freelist and freelistLen fields)
// carries the same contract one level down: it is mutated without
// synchronization on every fork and recycle, so any read or write of
// w.freelist must likewise happen on the enclosing Worker method's own
// receiver and outside function literals, and its address must never
// be taken. The worker's job context (the curJob and curShard fields,
// cached by setJob and read on every push and task boundary), its
// overflow list (overflowHead, overflowTail, spilled — filled by
// spillForPush, drained only by the owner), and the spill scratch
// buffer (spillBuf) are plain owner-only data of exactly the same
// class and are held to the same rule.
//
// The flight recorder (the rec field, internal/trace.Recorder) splits
// the same way as the deque: its recording methods write the owner-side
// ring with plain stores and must be invoked as w.rec.Method(...) with
// w the enclosing Worker method's receiver, outside function literals;
// the snapshot-protocol readers (Snapshot, Hist, ResetHists) and the
// pure accessors (Cap, Now) are safe from any goroutine, which is how
// Scheduler.TraceSnapshot and Scheduler.Stats read live rings. Because
// tracing is optional, comparing the field against nil is allowed
// anywhere — that is the disabled-tracing fast path — as is the
// initialization write in Worker.init.
//
// The elastic pool adds a third method class on both fields:
// epoch-guarded operations (deque Teardown; recorder ReleaseRing,
// EnsureRing) mutate owner-side structures from the resizer's
// goroutine, which is sound only under the worker-set quiescence
// discipline — the owning goroutine has exited and no epoch pin can
// still reach the structure. Such a call must sit in a function whose
// doc comment carries the //lcws:epoch-guarded directive (the written
// quiescence proof, shared with the fieldclass analyzer's
// epoch-guarded field class), outside function literals.
//
// unsafe.Offsetof(w.dq) and friends are exempt everywhere: Offsetof
// queries the struct layout without evaluating its operand, which is how
// the layout regression tests pin the cache-line contract.
//
// Test files are exempt, as in syncaccount and fieldclass: tests drive
// workers through hand-built states on the test goroutine (often on an
// unstarted scheduler where no owner goroutine exists yet), and the
// race detector covers them dynamically.
package owneronly

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"lcws/internal/analysis"
	"lcws/internal/analysis/fieldclass"
)

// workerPkg/workerType identify the guarded struct; dequeField,
// splitField and recField its method-bearing owner-only fields:
// lcws/internal/core.Worker.
const (
	workerPkg  = "lcws/internal/core"
	workerType = "Worker"
	dequeField = "dq"
	splitField = "split"
	recField   = "rec"
)

// plainOwnerFields are Worker fields that are plain unsynchronized
// data touched on the hot path: the task freelist (popped/pushed on
// every fork and recycle) and the cached job context (swapped at task
// boundaries, read on every push). Every read or write must be on the
// enclosing Worker method's own receiver, outside function literals,
// and the address must never be taken.
var plainOwnerFields = map[string]bool{
	"freelist":     true,
	"freelistLen":  true,
	"curJob":       true,
	"curShard":     true,
	"overflowHead": true,
	"overflowTail": true,
	"spilled":      true,
	"spillBuf":     true,
}

// ownerOnly holds the deque methods that must run on the owner's
// goroutine; thiefSafe holds the ones any thread may call. Every method
// reachable through the dq or split field must be classified in one of
// the two — an unclassified method is itself reported, so extending the
// taskDeque interface or the split deque forces a conscious concurrency
// decision here.
var ownerOnly = map[string]bool{
	"PushBottom":      true,
	"TryPushBottom":   true, // growth-aware push: owner-side array doubling
	"SpillOldest":     true, // overflow spill: owner-side window truncation
	"PopBottom":       true,
	"PopPublicBottom": true,
	"Expose":          true,
	"UnexposeAll":     true,
	"PushStamp":       true, // MultFree recycling stamp: epoch + owner-local bottom index
	"NeverExposed":    true, // MultFree recycling gate: owner-local exposure high-water mark
}

// epochGuarded holds the deque methods the elastic pool's resizer may
// call from outside the owner goroutine, but only under the worker-set
// quiescence discipline: the call must sit in a function whose doc
// comment carries the //lcws:epoch-guarded directive (see the package
// comment and core.workerSet).
var epochGuarded = map[string]bool{
	"Teardown": true, // index-preserving array release of a retired slot's deque
}

var thiefSafe = map[string]bool{
	"PopTop":             true,
	"PopTopHalf":         true, // batched steal: single CAS claims the run
	"TakeTopRelaxed":     true, // MultFree relaxed claim: per-thief RelClaim cursor, no CAS
	"TakeTopHalfRelaxed": true, // MultFree batched relaxed claim
	"HasTwoTasks":        true,
	"HasPublicWork":      true, // parking-lot pre-park / wake re-check
	"IsEmpty":            true,
	"PrivateSize":        true,
	"PublicSize":         true,
	"Capacity":           true, // atomic load of the published array generation
	"MaxCapacity":        true, // immutable growth ceiling
}

// recOwnerOnly holds the flight recorder's owner-path methods: they
// write the ring with plain stores, so only the owning worker may call
// them. recThiefSafe holds the freeze-protocol readers and pure
// accessors any goroutine may use. As with the deque, an unclassified
// method is reported so extending the Recorder forces a decision here.
var recOwnerOnly = map[string]bool{
	"TaskBegin":     true,
	"TaskEnd":       true,
	"Fork":          true,
	"StealAttempt":  true,
	"StealHit":      true,
	"LocalWork":     true,
	"ExposeRequest": true, // the thief records into its OWN ring
	"SignalSend":    true,
	"SignalHandle":  true,
	"Exposed":       true,
	"ParkStart":     true,
	"ParkEnd":       true,
	"DequeEmpty":    true,
	"Repair":        true,
	"Grow":          true, // deque growth marker, owner ring
	"Spill":         true, // overflow-spill marker, owner ring
	"JobSwitch":     true, // job-context marker written at setJob, owner ring
	"Duplicate":     true, // MultFree lost-arbitration marker: the loser records into its OWN ring
	"Resize":        true, // worker-set adoption marker, recorded by each worker on its own ring
	"Retire":        true, // retirement marker: the retiring worker's last own-ring event
	"Tail":          true, // owner-side plain reads (panic reports)
	"ResetRun":      true,
}

// recEpochGuarded holds the recorder's epoch-guarded methods: the ring
// release/restore pair of the elastic pool's retire/regrow path. Same
// directive rule as the deque's epochGuarded set.
var recEpochGuarded = map[string]bool{
	"ReleaseRing": true,
	"EnsureRing":  true,
}

var recThiefSafe = map[string]bool{
	"Snapshot":   true, // freeze protocol: safe against a live owner
	"Hist":       true, // atomic-word histogram reads
	"ResetHists": true,
	"Cap":        true,
	"Now":        true,
}

var Analyzer = &analysis.Analyzer{
	Name: "owneronly",
	Doc: "check that owner-only worker state is touched only by the owning worker\n\n" +
		"Owner-side deque operations elide all fences and CAS (Lemmas 1-3 of the paper); " +
		"calling one from another goroutine is a data race. This analyzer enforces that " +
		"owner-side calls through w.dq or w.split (TryPushBottom/PopBottom/PopPublicBottom/" +
		"Expose/UnexposeAll/...) appear only with w the receiver of the enclosing Worker " +
		"method, not inside function literals, and that neither field is ever aliased " +
		"into a variable or argument. The task " +
		"freelist, the cached job context (curJob, curShard), and the overflow-spill " +
		"state (overflowHead, overflowTail, spilled, spillBuf) carry the same " +
		"owner-only contract for plain reads and writes, " +
		"and the flight-recorder field (rec) splits its methods the same way: recording " +
		"methods are owner-only, the freeze-protocol readers (Snapshot/Hist/ResetHists) " +
		"are thief-safe, and nil comparisons — the disabled-tracing fast path — are " +
		"allowed anywhere.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	var files []*ast.File
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		files = append(files, f)
	}
	analysis.InspectWithStack(files, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch name := sel.Sel.Name; {
		case name == dequeField || name == splitField:
			if isWorkerField(fieldObject(pass, sel), name) {
				checkDequeUse(pass, sel, stack, name)
			}
		case plainOwnerFields[name]:
			if isWorkerField(fieldObject(pass, sel), name) {
				checkPlainFieldUse(pass, sel, stack, name)
			}
		case name == recField:
			if isWorkerField(fieldObject(pass, sel), recField) {
				checkRecUse(pass, sel, stack)
			}
		}
		return true
	})
	return nil
}

// fieldObject resolves a selector to the field it selects, or nil when
// it is not a field selection.
func fieldObject(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Var {
	if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
		v, _ := s.Obj().(*types.Var)
		return v
	}
	return nil
}

// isWorkerField reports whether v is core.Worker's field of the given
// name.
func isWorkerField(v *types.Var, name string) bool {
	return v != nil && v.Name() == name &&
		v.Pkg() != nil && v.Pkg().Path() == workerPkg
}

// workerRecv returns the receiver object of the innermost enclosing
// Worker method declaration, or nil when the stack is not inside one.
func workerRecv(pass *analysis.Pass, fd *ast.FuncDecl) types.Object {
	if fd == nil || fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	recvObj := pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
	if recvObj == nil {
		return nil
	}
	if n := analysis.NamedOf(recvObj.Type()); n == nil || n.Obj().Name() != workerType {
		return nil
	}
	return recvObj
}

// inFuncLit reports whether the stack crosses a function literal between
// fd and the node under inspection; such closures may escape the owner's
// goroutine.
func inFuncLit(stack []ast.Node, fd *ast.FuncDecl) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == fd {
			return false
		}
		if _, ok := stack[i].(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

// checkDequeUse validates one appearance of the dq or split field
// (named field). stack holds the ancestors of sel, outermost first.
func checkDequeUse(pass *analysis.Pass, sel *ast.SelectorExpr, stack []ast.Node, field string) {
	if len(stack) == 0 {
		return
	}
	if analysis.IsOffsetofArg(pass.TypesInfo, stack) {
		return
	}
	parent := stack[len(stack)-1]

	// Initialization writes (w.dq, w.split = ...) are the only non-call
	// uses allowed; they happen before the worker goroutine starts.
	if assign, ok := parent.(*ast.AssignStmt); ok {
		for _, lhs := range assign.Lhs {
			if lhs == sel {
				return
			}
		}
	}

	method, ok := parent.(*ast.SelectorExpr)
	if !ok || method.X != sel {
		pass.Reportf(sel.Pos(), "the %s field must not be aliased, passed, or compared: owner-only access is checked per call site", field)
		return
	}
	name := method.Sel.Name
	switch {
	case thiefSafe[name]:
		return
	case epochGuarded[name]:
		checkEpochGuardedCall(pass, method, stack, "deque")
		return
	case !ownerOnly[name]:
		pass.Reportf(method.Sel.Pos(), "deque method %s is not classified as owner-only, thief-safe, or epoch-guarded in the owneronly analyzer", name)
		return
	}

	// Owner-only method: must be called immediately (not bound as a
	// method value) ...
	if len(stack) < 2 {
		pass.Reportf(method.Sel.Pos(), "owner-only deque method %s must be called directly, not bound as a method value", name)
		return
	}
	if call, ok := stack[len(stack)-2].(*ast.CallExpr); !ok || call.Fun != method {
		pass.Reportf(method.Sel.Pos(), "owner-only deque method %s must be called directly, not bound as a method value", name)
		return
	}

	// ... on the receiver of the enclosing Worker method ...
	fd := analysis.EnclosingFuncDecl(stack)
	recvObj := workerRecv(pass, fd)
	if recvObj == nil {
		pass.Reportf(method.Sel.Pos(), "owner-only deque method %s called outside a Worker method", name)
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[id] != recvObj {
		pass.Reportf(method.Sel.Pos(), "owner-only deque method %s called on %s, which is not the owning receiver %s", name, exprString(sel.X), recvObj.Name())
		return
	}

	// ... and not from inside a function literal, which could run on
	// another goroutine or after the owner loop moved on.
	if inFuncLit(stack, fd) {
		pass.Reportf(method.Sel.Pos(), "owner-only deque method %s called inside a function literal; closures may escape the owner's goroutine", name)
	}
}

// checkPlainFieldUse validates one appearance of a plain owner-only
// data field (freelist, curJob, curShard). These are popped, pushed
// and swapped on the hot path without any synchronization, so the
// rules are stricter than the deque's: every read or write — not just
// method calls — must be on the enclosing Worker method's own
// receiver, outside function literals, and the field's address must
// never be taken (an alias would let another goroutine reach the
// owner's state).
func checkPlainFieldUse(pass *analysis.Pass, sel *ast.SelectorExpr, stack []ast.Node, field string) {
	if len(stack) == 0 {
		return
	}
	if analysis.IsOffsetofArg(pass.TypesInfo, stack) {
		return
	}
	if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND && u.X == sel {
		pass.Reportf(sel.Pos(), "the %s field must not have its address taken: owner-only access is checked per use site", field)
		return
	}

	fd := analysis.EnclosingFuncDecl(stack)
	recvObj := workerRecv(pass, fd)
	if recvObj == nil {
		pass.Reportf(sel.Pos(), "owner-only field %s accessed outside a Worker method", field)
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[id] != recvObj {
		pass.Reportf(sel.Pos(), "owner-only field %s accessed on %s, which is not the owning receiver %s", field, exprString(sel.X), recvObj.Name())
		return
	}
	if inFuncLit(stack, fd) {
		pass.Reportf(sel.Pos(), "owner-only field %s accessed inside a function literal; closures may escape the owner's goroutine", field)
	}
}

// isNilComparison reports whether sel is an operand of a ==/!=
// comparison against the untyped nil literal.
func isNilComparison(pass *analysis.Pass, stack []ast.Node, sel *ast.SelectorExpr) bool {
	if len(stack) == 0 {
		return false
	}
	bin, ok := stack[len(stack)-1].(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return false
	}
	other := bin.X
	if other == sel {
		other = bin.Y
	} else if bin.Y != sel {
		return false
	}
	tv, ok := pass.TypesInfo.Types[other]
	return ok && tv.IsNil()
}

// checkRecUse validates one appearance of the rec field. The rules are
// the deque's — direct calls only, owner receiver for the owner-path
// methods, no closures, no aliasing, initialization assignment allowed —
// plus one extra allowance: nil comparisons, because `w.rec != nil` is
// the disabled-tracing fast path guarding every hook, and thieves read
// a victim's nil-ness nowhere (hooks always test the caller's own rec).
func checkRecUse(pass *analysis.Pass, sel *ast.SelectorExpr, stack []ast.Node) {
	if len(stack) == 0 {
		return
	}
	if analysis.IsOffsetofArg(pass.TypesInfo, stack) {
		return
	}
	if isNilComparison(pass, stack, sel) {
		return
	}
	parent := stack[len(stack)-1]

	// Initialization write (w.rec = ...) in Worker.init, before the
	// worker goroutine exists.
	if assign, ok := parent.(*ast.AssignStmt); ok {
		for _, lhs := range assign.Lhs {
			if lhs == sel {
				return
			}
		}
	}

	method, ok := parent.(*ast.SelectorExpr)
	if !ok || method.X != sel {
		pass.Reportf(sel.Pos(), "the rec field must not be aliased, passed, or compared (except against nil): owner-only access is checked per call site")
		return
	}
	name := method.Sel.Name
	switch {
	case recThiefSafe[name]:
		return
	case recEpochGuarded[name]:
		checkEpochGuardedCall(pass, method, stack, "recorder")
		return
	case !recOwnerOnly[name]:
		pass.Reportf(method.Sel.Pos(), "recorder method %s is not classified as owner-only, thief-safe, or epoch-guarded in the owneronly analyzer", name)
		return
	}

	if len(stack) < 2 {
		pass.Reportf(method.Sel.Pos(), "owner-only recorder method %s must be called directly, not bound as a method value", name)
		return
	}
	if call, ok := stack[len(stack)-2].(*ast.CallExpr); !ok || call.Fun != method {
		pass.Reportf(method.Sel.Pos(), "owner-only recorder method %s must be called directly, not bound as a method value", name)
		return
	}

	fd := analysis.EnclosingFuncDecl(stack)
	recvObj := workerRecv(pass, fd)
	if recvObj == nil {
		pass.Reportf(method.Sel.Pos(), "owner-only recorder method %s called outside a Worker method", name)
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[id] != recvObj {
		pass.Reportf(method.Sel.Pos(), "owner-only recorder method %s called on %s, which is not the owning receiver %s", name, exprString(sel.X), recvObj.Name())
		return
	}
	if inFuncLit(stack, fd) {
		pass.Reportf(method.Sel.Pos(), "owner-only recorder method %s called inside a function literal; closures may escape the owner's goroutine", name)
	}
}

// checkEpochGuardedCall validates a call to an epoch-guarded method
// (deque Teardown, recorder ReleaseRing/EnsureRing): it must be a
// direct call from a function whose doc comment carries the
// //lcws:epoch-guarded directive — the documented quiescence proof —
// and not from inside a function literal, which could escape the
// quiescent window.
func checkEpochGuardedCall(pass *analysis.Pass, method *ast.SelectorExpr, stack []ast.Node, kind string) {
	name := method.Sel.Name
	if len(stack) < 2 {
		pass.Reportf(method.Sel.Pos(), "epoch-guarded %s method %s must be called directly, not bound as a method value", kind, name)
		return
	}
	if call, ok := stack[len(stack)-2].(*ast.CallExpr); !ok || call.Fun != method {
		pass.Reportf(method.Sel.Pos(), "epoch-guarded %s method %s must be called directly, not bound as a method value", kind, name)
		return
	}
	fd := analysis.EnclosingFuncDecl(stack)
	if fd == nil || !docHasMarker(fd.Doc, fieldclass.EpochGuardedMarker) {
		pass.Reportf(method.Sel.Pos(), "epoch-guarded %s method %s called outside a function carrying the %s quiescence directive", kind, name, fieldclass.EpochGuardedMarker)
		return
	}
	if inFuncLit(stack, fd) {
		pass.Reportf(method.Sel.Pos(), "epoch-guarded %s method %s called inside a function literal; closures may escape the quiescent window", kind, name)
	}
}

// docHasMarker reports whether any comment line in cg starts with
// marker.
func docHasMarker(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.HasPrefix(c.Text, marker) {
			return true
		}
	}
	return false
}

// exprString renders small expressions for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	default:
		return "expression"
	}
}
