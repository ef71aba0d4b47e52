package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockOrder enforces the documented mutex discipline of internal/pubsub
// (publisher.go and registry.go: "Lock order: mutMu → grpMu → mu → pubMu"):
// within any function, acquiring a lower-ranked mutex while a higher-ranked
// one is held is an inversion that can deadlock against the conforming
// path. It also requires every Lock/RLock on a tracked mutex field to have a
// paired Unlock/RUnlock or defer Unlock in the same function.
//
// The analysis is intra-procedural and walks each function body in source
// order, which is exactly how the package is written (no lock is passed
// across function boundaries while held, except through the documented
// "callers hold grpMu" helpers, which take no locks themselves).
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "check the mutMu → grpMu → mu → pubMu acquisition order and " +
		"Lock/Unlock pairing on the named mutex fields of internal/pubsub",
	Packages: []string{"internal/pubsub"},
	Run:      runLockOrder,
}

// lockRank orders the named mutex fields the analyzer follows: a mutex may
// only be acquired while every held mutex has a strictly LOWER rank.
var lockRank = map[string]int{
	"mutMu": 0,
	"grpMu": 1,
	"mu":    2,
	"pubMu": 3,
}

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
	if _, tracked := lockRank[field]; !tracked {
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
				if lockRank[ev.field] < lockRank[heldField] {
					pass.Reportf(ev.pos,
						"acquires %s while holding %s; the documented lock order is mutMu → grpMu → mu → pubMu (publisher.go)",
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
