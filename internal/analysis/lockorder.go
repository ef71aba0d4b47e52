package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockOrder enforces the mutex discipline of internal/pubsub (publisher.go):
// the publisher has two locks, the registry's mu (table T and the group
// state) and pubMu (the epoch, the diff bases and the publish record), and
// no function holds both. A publish holds pubMu across its journal ticket
// while the journal's applies take mu, so nesting them in either order can
// deadlock against the flusher. It also requires every Lock/RLock on a
// tracked mutex field to have a paired Unlock/RUnlock or defer Unlock in the
// same function.
//
// The analysis is intra-procedural and walks each function body in source
// order, which is exactly how the package is written (no lock is passed
// across function boundaries while held, except through the documented
// "callers hold the registry lock" helpers, which take no locks themselves).
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "check that mu and pubMu are never held together and that " +
		"Lock/Unlock pair on the named mutex fields of internal/pubsub",
	Packages: []string{"internal/pubsub"},
	Run:      runLockOrder,
}

// trackedLocks names the mutex fields the analyzer follows: a tracked mutex
// may not be acquired while a different one is held.
var trackedLocks = map[string]bool{"mu": true, "pubMu": true}

// mutexEvent is one Lock/Unlock-shaped call site, in source order.
type mutexEvent struct {
	field    string
	method   string // Lock, RLock, Unlock, RUnlock
	deferred bool
	pos      token.Pos
}

func runLockOrder(pass *Pass) error {
	for _, f := range pass.Checked {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockDiscipline(pass, fd)
		}
	}
	return nil
}

// mutexCallEvent decodes a call expression into a mutex event if it is a
// sync.Mutex/RWMutex Lock-family method on a tracked named field.
func mutexCallEvent(info *types.Info, call *ast.CallExpr) (mutexEvent, bool) {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return mutexEvent{}, false
	}
	switch f.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return mutexEvent{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return mutexEvent{}, false
	}
	var field string
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		field = recv.Sel.Name
	case *ast.Ident:
		field = recv.Name
	default:
		return mutexEvent{}, false
	}
	if !trackedLocks[field] {
		return mutexEvent{}, false
	}
	return mutexEvent{field: field, method: f.Name(), pos: call.Pos()}, true
}

func checkLockDiscipline(pass *Pass, fd *ast.FuncDecl) {
	var events []mutexEvent
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.DeferStmt:
			if ev, ok := mutexCallEvent(pass.Info, node.Call); ok {
				ev.deferred = true
				events = append(events, ev)
				return false
			}
		case *ast.CallExpr:
			if ev, ok := mutexCallEvent(pass.Info, node); ok {
				events = append(events, ev)
				return false
			}
		case *ast.FuncLit:
			// Closures get their own linear scan below; don't fold their
			// events into the enclosing function's order.
			return false
		}
		return true
	})

	held := make(map[string]token.Pos)
	deferredUnlock := make(map[string]bool)
	firstLock := make(map[string]token.Pos)
	unlocks := make(map[string]int)

	for _, ev := range events {
		switch ev.method {
		case "Lock", "RLock":
			if ev.deferred {
				continue // defer x.Lock() — nonsensical, but not this check
			}
			for heldField := range held {
				if heldField != ev.field {
					pass.Reportf(ev.pos,
						"acquires %s while holding %s; the publisher never holds mu and pubMu together (publisher.go)",
						ev.field, heldField)
				}
			}
			held[ev.field] = ev.pos
			if _, ok := firstLock[ev.field]; !ok {
				firstLock[ev.field] = ev.pos
			}
		case "Unlock", "RUnlock":
			if ev.deferred {
				deferredUnlock[ev.field] = true
			} else {
				delete(held, ev.field)
			}
			unlocks[ev.field]++
		}
	}

	for field, pos := range firstLock {
		if unlocks[field] == 0 {
			pass.Reportf(pos, "%s.Lock without a paired Unlock or defer Unlock in this function", field)
			continue
		}
		// Linear-order residue: a lock acquired after its last unlock and
		// not covered by a deferred unlock is still held on the fall-through
		// return path.
		if heldPos, stillHeld := held[field]; stillHeld && !deferredUnlock[field] {
			pass.Reportf(heldPos, "%s may still be held at function exit (no Unlock after this Lock and no defer Unlock)", field)
		}
	}

	// Recurse into closures as independent functions: each gets its own
	// source-order scan.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			checkLockDiscipline(pass, &ast.FuncDecl{Name: fd.Name, Body: lit.Body})
			return false
		}
		return true
	})
}
