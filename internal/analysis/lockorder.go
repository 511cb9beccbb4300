package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockOrder flags two mutex hazards in one package:
//
//   - acquiring any other mutex while holding pvm.System's state lock —
//     System.mu is a leaf lock by contract (every System method releases
//     it before touching a Task or barrier), and nesting under it
//     deadlocks against the task/barrier paths that lock in the other
//     order;
//   - inverted acquisition orders: function A locks T1.mu then T2.mu
//     while function B locks T2.mu then T1.mu — the classic ABBA
//     deadlock.
//
// Locks are keyed by the named type owning the mutex field ("System.mu",
// "crun.mu"). The analysis is intra-function and source-ordered: a
// deferred Unlock holds to the end of the function, an explicit Unlock
// releases at its statement. A block that ends in return, panic, break
// or continue is one path out: what it locks or unlocks holds only
// inside it, and after it the held set is what it was before it.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "flag mutex acquisition while holding the pvm.System leaf lock, and ABBA order inversions",
	Run:  runLockOrder,
}

// lockUse is one Lock call with the set of keys already held there.
type lockUse struct {
	key  string
	pos  token.Pos
	held []string
	fn   string
}

func runLockOrder(pass *Pass) error {
	var uses []lockUse
	for _, f := range pass.Files {
		funcBodies(f, func(name string, body *ast.BlockStmt) {
			uses = append(uses, collectLockUses(pass, name, body)...)
		})
	}

	// Leaf-lock rule: nothing may be acquired under System.mu.
	for _, u := range uses {
		for _, h := range u.held {
			if isSystemLock(h) && !isSystemLock(u.key) {
				pass.Reportf(u.pos, "acquiring %s while holding %s: pvm.System's lock is a leaf lock, release it first", u.key, h)
			}
		}
	}

	// ABBA rule: the same ordered pair in both directions anywhere in
	// the package.
	type pair struct{ first, second string }
	firstPos := make(map[pair]token.Pos)
	for _, u := range uses {
		for _, h := range u.held {
			if h == u.key {
				continue
			}
			p := pair{h, u.key}
			if _, ok := firstPos[p]; !ok {
				firstPos[p] = u.pos
			}
		}
	}
	for p, pos := range firstPos {
		inv := pair{p.second, p.first}
		if _, ok := firstPos[inv]; ok {
			pass.Reportf(pos, "lock order inversion: %s is acquired while holding %s here, and %s while holding %s elsewhere in the package", p.second, p.first, p.first, p.second)
		}
	}
	return nil
}

// collectLockUses walks one body in source order maintaining the held
// set.
func collectLockUses(pass *Pass, fnName string, body *ast.BlockStmt) []lockUse {
	const (
		lock = iota
		unlock
		enter // a block that ends its path starts: save the held set
		leave // ... and ends: restore it
	)
	type lockEvent struct {
		pos token.Pos
		key string
		op  int
	}
	var events []lockEvent
	block := func(start, end token.Pos, stmts []ast.Stmt) {
		if endsPath(pass, stmts) {
			events = append(events, lockEvent{pos: start, op: enter}, lockEvent{pos: end, op: leave})
		}
	}
	walkBody(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.DeferStmt:
			return false // a deferred Unlock never releases within the body
		case *ast.BlockStmt:
			block(st.Lbrace, st.End(), st.List)
		case *ast.CaseClause:
			block(st.Colon, st.End(), st.Body)
		case *ast.CommClause:
			block(st.Colon, st.End(), st.Body)
		case *ast.CallExpr:
			if key, isLock, ok := mutexCall(pass, st); ok {
				op := unlock
				if isLock {
					op = lock
				}
				events = append(events, lockEvent{pos: st.Pos(), key: key, op: op})
			}
		}
		return true
	})
	// Source order approximates execution order intra-function.
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	var held []string
	var saved [][]string
	var uses []lockUse
	for _, ev := range events {
		switch ev.op {
		case lock:
			uses = append(uses, lockUse{key: ev.key, pos: ev.pos, held: append([]string(nil), held...), fn: fnName})
			held = append(held, ev.key)
		case unlock:
			for i := len(held) - 1; i >= 0; i-- {
				if held[i] == ev.key {
					held = append(held[:i], held[i+1:]...)
					break
				}
			}
		case enter:
			saved = append(saved, append([]string(nil), held...))
		case leave:
			held, saved = saved[len(saved)-1], saved[:len(saved)-1]
		}
	}
	return uses
}

// endsPath reports whether a block's statements end in a return, a
// panic, a break or a continue: control never falls out of its end.
func endsPath(pass *Pass, stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch st := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return st.Tok == token.BREAK || st.Tok == token.CONTINUE
	case *ast.ExprStmt:
		call, ok := st.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		_, builtin := pass.TypesInfo.Uses[id].(*types.Builtin)
		return builtin && id.Name == "panic"
	}
	return false
}

// mutexCall recognizes x.mu.Lock()/Unlock() (and RLock/RUnlock) where mu
// is a sync.Mutex/RWMutex-shaped field of a named struct, returning the
// lock key "Type.field".
func mutexCall(pass *Pass, call *ast.CallExpr) (key string, isLock, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return "", false, false
	}
	var lock bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		lock = true
	case "Unlock", "RUnlock":
		lock = false
	default:
		return "", false, false
	}
	mt := pass.TypesInfo.TypeOf(sel.X)
	if mt == nil {
		return "", false, false
	}
	name := typeNameOf(mt)
	if name != "Mutex" && name != "RWMutex" {
		return "", false, false
	}
	// The mutex expression: a field selection owner.field.
	fieldSel, okField := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !okField {
		// A bare local mutex cannot participate in cross-type ordering.
		return "", false, false
	}
	ownerType := pass.TypesInfo.TypeOf(fieldSel.X)
	owner := typeNameOf(ownerType)
	if owner == "" {
		return "", false, false
	}
	return owner + "." + fieldSel.Sel.Name, lock, true
}

// isSystemLock matches the pvm.System state lock.
func isSystemLock(key string) bool { return key == "System.mu" }
