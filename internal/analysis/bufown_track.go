package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// The tracking half of bufown: recognizing acquisitions (Recv and
// friends, NewBuffer chains, Buffer() aliases, the sends themselves),
// interpreting uses, and the escape rules that retire a resource from
// the analysis.

// recvPairNames are the mailbox draws returning (Message, error); the
// error is the acquisition guard.
var recvPairNames = map[string]bool{"Recv": true, "RecvTimeout": true}

// drainNames are the bulk mailbox draws: their result's elements
// acquire ownership when ranged.
var drainNames = map[string]bool{"TryRecvAll": true, "AppendRecvAll": true}

// sendNames transfer ownership of their *Buffer arguments to the fabric.
var sendNames = map[string]bool{"Send": true, "SendBatch": true, "SendBatches": true}

func isMessageType(t types.Type) bool { return typeNameOf(t) == "Message" }

func (w *ownWalker) assign(st *ast.AssignStmt, env *ownEnv) {
	info := w.pass.TypesInfo

	// Guarded acquisition: m, err := t.Recv(...).
	if len(st.Lhs) == 2 && len(st.Rhs) == 1 {
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
			fn := calleeFunc(info, call)
			if fn != nil && recvPairNames[fn.Name()] && isMessageType(resultType(fn, 0)) {
				w.useExpr(call, env)
				mObj := identObj(info, st.Lhs[0])
				if mObj != nil {
					env.vars[mObj] = &res{
						kind:    resMsg,
						state:   stOwned,
						acq:     st.Lhs[0].Pos(),
						pairObj: identObj(info, st.Lhs[1]),
					}
				}
				return
			}
		}
	}

	if len(st.Lhs) == 1 && len(st.Rhs) == 1 {
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
			fn := calleeFunc(info, call)
			lhsObj := identObj(info, st.Lhs[0])
			switch {
			// msgs = t.AppendRecvAll(msgs[:0], ...): elements acquire when
			// ranged.
			case fn != nil && drainNames[fn.Name()] && lhsObj != nil:
				w.useExpr(call, env)
				env.sliceSrc[lhsObj] = true
				return
			// buf := NewBuffer().Pack...(...): a send-side buffer,
			// tracked for the ownership transfer at its Send.
			case lhsObj != nil && newBufferChain(info, call):
				w.useExpr(call, env)
				env.vars[lhsObj] = &res{kind: resBuf, state: stOwned, acq: st.Lhs[0].Pos()}
				return
			// b := m.Buffer(): b aliases m's pooled wire record.
			case fn != nil && fn.Name() == "Buffer" && lhsObj != nil:
				if mObj := identObj(info, receiverExpr(call)); mObj != nil {
					if r, tracked := env.vars[mObj]; tracked && r.kind == resMsg {
						w.useExpr(call, env) // use-after-release check on m
						env.vars[lhsObj] = &res{kind: resBuf, state: stOwned, acq: st.Lhs[0].Pos(), aliasOf: mObj}
						return
					}
				}
			}
		}
	}

	// Everything else: evaluate the right side, escape tracked values
	// that flow somewhere we cannot follow, and rebind overwritten
	// locals to untracked.
	for i, lhs := range st.Lhs {
		var rhs ast.Expr
		if len(st.Rhs) == len(st.Lhs) {
			rhs = st.Rhs[i]
		} else if len(st.Rhs) == 1 {
			rhs = st.Rhs[0]
		}
		if rhs != nil {
			w.useExpr(rhs, env)
			// m2 := m / x.field = m: the value now has a second name or
			// lives in the heap; both retire it.
			if obj := identObj(info, rhs); obj != nil {
				if _, tracked := env.vars[obj]; tracked {
					w.escapeObj(obj, env)
				}
				if env.sliceSrc[obj] {
					w.escapeSlice(obj, env)
				}
			}
		}
		if obj := identObj(info, lhs); obj != nil {
			// A fresh value ends the tracking; x = append(x, …) still
			// aliases what was tracked.
			if rhs == nil || !exprMentions(info, rhs, obj) {
				delete(env.vars, obj)
			}
			delete(env.sliceSrc, obj)
			continue
		}
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if obj, r := w.sentPayload(ix.X, env); r != nil {
				w.reportf(lhs.Pos(), lhs.End(),
					"store into %q already sent at line %d: engines may share the sender's bytes",
					obj.Name(), w.pass.Fset.Position(r.sentAt).Line)
			}
		}
		w.useExpr(lhs, env)
	}
}

// sentPayload resolves e to a []byte local that Ctx.Send has queued on
// some path and that has not been rebound since. Its state is not
// consulted: an escape does not end the hazard, no callee can make a
// write to queued bytes safe.
func (w *ownWalker) sentPayload(e ast.Expr, env *ownEnv) (types.Object, *res) {
	if obj := payloadObj(w.pass.TypesInfo, e); obj != nil {
		if r := env.vars[obj]; r != nil && r.kind == resPayload {
			return obj, r
		}
	}
	return nil, nil
}

// payloadObj resolves expressions naming a []byte variable: the bare
// identifier or a slice of it (payload[a:b] still aliases payload).
func payloadObj(info *types.Info, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok {
		e = ast.Unparen(sl.X)
	}
	obj := identObj(info, e)
	if obj == nil {
		return nil
	}
	if sl, ok := obj.Type().Underlying().(*types.Slice); ok && isBasic(sl.Elem(), types.Uint8) {
		return obj
	}
	return nil
}

// exprMentions reports whether e references obj.
func exprMentions(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && identObj(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// resultType returns fn's i-th result type, or nil.
func resultType(fn *types.Func, i int) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() <= i {
		return nil
	}
	return sig.Results().At(i).Type()
}

// newBufferChain reports whether call is NewBuffer() or a Pack chain
// rooted at one (Pack methods return their receiver).
func newBufferChain(info *types.Info, call *ast.CallExpr) bool {
	if typeNameOf(info.TypeOf(call)) != "Buffer" {
		return false
	}
	for {
		fn := calleeFunc(info, call)
		if fn != nil && fn.Name() == "NewBuffer" {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		inner, ok := ast.Unparen(sel.X).(*ast.CallExpr)
		if !ok {
			return false
		}
		call = inner
	}
}

func (w *ownWalker) useExprs(es []ast.Expr, env *ownEnv) {
	for _, e := range es {
		w.useExpr(e, env)
	}
}

// useExpr walks an expression, dispatching calls to evalCall and
// escaping resources captured by closures or composite values.
func (w *ownWalker) useExpr(e ast.Expr, env *ownEnv) {
	if e == nil {
		return
	}
	info := w.pass.TypesInfo
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			w.escapeIn(x, env)
			return false
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				if obj := identObj(info, elt); obj != nil {
					w.escapeObj(obj, env)
				}
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if obj := identObj(info, kv.Value); obj != nil {
						w.escapeObj(obj, env)
					}
				}
			}
			return true
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if obj := identObj(info, x.X); obj != nil {
					w.escapeObj(obj, env)
				}
			}
			return true
		case *ast.CallExpr:
			w.evalCall(x, env)
			if w.isSend(x) {
				// sendCall judged the arguments: the buffers of a literal
				// batch transferred, they did not escape.
				w.useExpr(x.Fun, env)
				return false
			}
			return true
		}
		return true
	})
}

// escapeIn escapes every tracked resource mentioned anywhere in e.
func (w *ownWalker) escapeIn(e ast.Node, env *ownEnv) {
	info := w.pass.TypesInfo
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := identObj(info, id); obj != nil {
				w.escapeObj(obj, env)
				if env.sliceSrc[obj] {
					w.escapeSlice(obj, env)
				}
			}
		}
		return true
	})
}

func (w *ownWalker) escapeObj(obj types.Object, env *ownEnv) {
	if r, ok := env.vars[obj]; ok {
		r.state = stEscaped
	}
}

// escapeSlice retires a bulk-drain slice and the elements ranged from
// it: once the slice is handed to a call (releaseRest and friends), the
// callee owns the remaining messages.
func (w *ownWalker) escapeSlice(obj types.Object, env *ownEnv) {
	delete(env.sliceSrc, obj)
	for _, r := range env.vars {
		if r.elemOf == obj {
			r.state = stEscaped
		}
	}
}

// evalCall applies one call's ownership effects.
func (w *ownWalker) evalCall(call *ast.CallExpr, env *ownEnv) {
	info := w.pass.TypesInfo
	fn := calleeFunc(info, call)
	name := ""
	if fn != nil {
		name = fn.Name()
	}
	robj := identObj(info, receiverExpr(call))
	var r *res
	if robj != nil {
		r = env.vars[robj]
	}

	switch {
	case name == "Release" && r != nil && r.kind == resMsg:
		switch r.state {
		case stReleased:
			w.reportf(call.Pos(), call.End(),
				"double release of wire message %q: its reference was already dropped", robj.Name())
		case stTransferred:
			w.reportf(call.Pos(), call.End(),
				"wire message %q released while its bytes are in flight (sent at line %d): the pool may recycle them before delivery",
				robj.Name(), w.pass.Fset.Position(r.sentAt).Line)
		case stOwned, stMaybeOwned, stUnowned:
			if r.deferred {
				w.reportf(call.Pos(), call.End(),
					"wire message %q released twice: a deferred Release is already pending", robj.Name())
			}
			r.state = stReleased
		}
		return
	case name == "Buffer" && r != nil && r.kind == resMsg:
		if r.state == stReleased {
			w.reportf(call.Pos(), call.End(),
				"Buffer() on released wire message %q: the bytes may already back another message", robj.Name())
		}
		return
	case r != nil && r.kind == resBuf:
		// Any data method on a *Buffer aliasing a dead message reads
		// (or writes) recycled pool bytes.
		owner := r
		ownerName := robj.Name()
		if r.aliasOf != nil {
			if or, ok := env.vars[r.aliasOf]; ok {
				owner = or
				ownerName = r.aliasOf.Name()
			}
		}
		if owner.kind == resMsg && owner.state == stReleased {
			w.reportf(call.Pos(), call.End(),
				"use of buffer %q after message %q was released: the pooled bytes may be recycled", robj.Name(), ownerName)
		}
		if strings.HasPrefix(name, "Pack") && (owner.state == stTransferred || owner.state == stMaybeTransferred) {
			w.reportf(call.Pos(), call.End(),
				"%s into buffer %q already sent at line %d: the send owns the buffer's bytes, pack into a fresh one",
				name, robj.Name(), w.pass.Fset.Position(owner.sentAt).Line)
		}
		return
	case sendNames[name]:
		w.sendCall(call, env)
		return
	case name == "panic" || name == "Release" || name == "Buffer":
		return
	}

	// append/copy into a queued payload write bytes the receiver may be
	// handed as they are.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && len(call.Args) > 0 {
		if bi, ok := info.Uses[id].(*types.Builtin); ok && (bi.Name() == "append" || bi.Name() == "copy") {
			if obj, r := w.sentPayload(call.Args[0], env); r != nil {
				w.reportf(call.Pos(), call.End(),
					"%s into payload %q already queued by Send at line %d: engines may share the sender's bytes",
					bi.Name(), obj.Name(), w.pass.Fset.Position(r.sentAt).Line)
			}
		}
	}

	// Unknown callee: tracked values in argument position escape — the
	// callee may release, store, or forward them.
	for _, arg := range call.Args {
		// Skip the structural Pack/Unpack receivers already handled via
		// their own evalCall visit; only idents in the arg trees escape.
		ast.Inspect(arg, func(n ast.Node) bool {
			if _, ok := n.(*ast.CallExpr); ok {
				// A nested call's result is a fresh value; the call
				// itself is judged by its own evalCall visit.
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if obj := identObj(info, id); obj != nil {
					if _, tracked := env.vars[obj]; tracked {
						w.escapeObj(obj, env)
					}
					if env.sliceSrc[obj] {
						w.escapeSlice(obj, env)
					}
				}
			}
			return true
		})
	}
}

// sendCall transfers ownership of *Buffer arguments to the fabric and
// reports re-sends — including on a state only some paths transferred,
// which is a bug on exactly those paths.
func (w *ownWalker) sendCall(call *ast.CallExpr, env *ownEnv) {
	info := w.pass.TypesInfo
	// Ctx.Send(dst, tag, payload) queues the slice itself; sending it
	// again only reads it.
	if rt := receiverType(info, call); rt != nil && isCtxType(rt) {
		w.useExprs(call.Args, env)
		if len(call.Args) == 3 {
			if obj := payloadObj(info, call.Args[2]); obj != nil {
				env.vars[obj] = &res{kind: resPayload, state: stTransferred, sentAt: call.Pos()}
			}
		}
		return
	}
	for _, arg := range call.Args {
		w.sendArg(arg, env)
	}
}

// sendArg transfers what one send argument names: a *Buffer local, or
// each one written out in a slice or Batch literal — SendBatch's
// []*Buffer{a, b}, SendBatches' []Batch{{Dst: d, Bufs: []*Buffer{a, b}}}.
// Anything else is an ordinary use.
func (w *ownWalker) sendArg(arg ast.Expr, env *ownEnv) {
	info := w.pass.TypesInfo
	if cl, ok := ast.Unparen(arg).(*ast.CompositeLit); ok {
		for _, elt := range cl.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			w.sendArg(elt, env)
		}
		return
	}
	obj := identObj(info, arg)
	if obj == nil {
		w.useExpr(arg, env)
		return
	}
	r, tracked := env.vars[obj]
	switch {
	case !tracked:
		// A buffer from anywhere else (a parameter, a pool) is tracked
		// from its first send on.
		if typeNameOf(info.TypeOf(arg)) == "Buffer" {
			env.vars[obj] = &res{kind: resBuf, state: stTransferred, sentAt: arg.Pos()}
		}
	case r.kind == resBuf:
		w.transferBuf(arg, obj, env)
	default:
		w.escapeObj(obj, env)
	}
}

func (w *ownWalker) transferBuf(at ast.Expr, obj types.Object, env *ownEnv) {
	r, ok := env.vars[obj]
	if !ok {
		return
	}
	target := r
	targetName := obj.Name()
	if r.aliasOf != nil {
		or, tracked := env.vars[r.aliasOf]
		if !tracked {
			return
		}
		if or.state == stReleased {
			w.reportf(at.Pos(), at.End(),
				"buffer %q sent after message %q was released: recycled pool bytes would go on the wire", obj.Name(), r.aliasOf.Name())
			return
		}
		target = or
		targetName = r.aliasOf.Name()
	}
	switch target.state {
	case stTransferred:
		w.reportf(at.Pos(), at.End(),
			"buffer %q sent again: ownership transferred to the fabric at line %d, a buffer is sendable exactly once",
			targetName, w.pass.Fset.Position(target.sentAt).Line)
	case stMaybeTransferred:
		w.reportf(at.Pos(), at.End(),
			"buffer %q may already have been sent on some paths: ownership would transfer twice", targetName)
	case stOwned, stMaybeOwned:
		target.state = stTransferred
		target.sentAt = at.Pos()
	}
}

func (w *ownWalker) rangeStmt(st *ast.RangeStmt, env *ownEnv) flow {
	info := w.pass.TypesInfo
	w.useExpr(st.X, env)

	// Ranging over a bulk drain's result acquires one message per
	// iteration; each must be settled before the iteration ends.
	var srcObj, elemObj types.Object
	if obj := identObj(info, st.X); obj != nil && env.sliceSrc[obj] {
		// Only the final loop over the batch owns its elements; an
		// earlier pass (sizing, validation) borrows them.
		if w.lastRange[obj] == st {
			srcObj = obj
		}
	}
	if st.Value != nil {
		if vObj := identObj(info, st.Value); vObj != nil && isMessageType(vObj.Type()) {
			if srcObj != nil || rangesDrain(info, st.X) {
				elemObj = vObj
			}
		}
	}

	body := func(e *ownEnv) flow {
		if elemObj != nil {
			e.vars[elemObj] = &res{kind: resMsg, state: stOwned, acq: st.Value.Pos(), elemOf: srcObj}
		}
		fl := w.block(st.Body.List, e)
		if elemObj != nil {
			if r, ok := e.vars[elemObj]; ok {
				if fl == flowNormal && r.state == stOwned && !r.deferred {
					w.reportf(st.Value.Pos(), st.Value.End(),
						"wire message %q from a bulk drain is not released on every path through the loop body", elemObj.Name())
				}
				delete(e.vars, elemObj)
			}
		}
		return fl
	}
	w.loopBody(body, env)
	return flowNormal
}

// rangesDrain reports whether e is a direct bulk-drain call.
func rangesDrain(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(info, call)
	return fn != nil && drainNames[fn.Name()]
}

func (w *ownWalker) deferStmt(st *ast.DeferStmt, env *ownEnv) {
	info := w.pass.TypesInfo
	call := st.Call

	// defer m.Release(): the canonical panic-safe discharge.
	if fn := calleeFunc(info, call); fn != nil && fn.Name() == "Release" {
		if robj := identObj(info, receiverExpr(call)); robj != nil {
			if r, ok := env.vars[robj]; ok && r.kind == resMsg {
				if r.deferred {
					w.reportf(call.Pos(), call.End(),
						"wire message %q released twice: a deferred Release is already pending", robj.Name())
				}
				r.deferred = true
				return
			}
		}
	}

	// defer func() { m.Release() }(): a closure releasing tracked
	// messages and touching nothing else counts the same; any other
	// captured resource escapes.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok && len(call.Args) == 0 {
		released, others := closureReleases(info, lit, env)
		for _, obj := range released {
			env.vars[obj].deferred = true
		}
		for _, obj := range others {
			w.escapeObj(obj, env)
		}
		return
	}

	// A deferred send transfers when the function exits, not here.
	if w.isSend(call) {
		if !slices.Contains(env.defers, call) { // else: second pass over a loop body
			env.defers = append(env.defers, call)
		}
		return
	}
	w.useExpr(call, env)
}

func (w *ownWalker) isSend(call *ast.CallExpr) bool {
	fn := calleeFunc(w.pass.TypesInfo, call)
	return fn != nil && sendNames[fn.Name()]
}

// runDefers interprets the path's deferred sends at a function exit in
// the order they run: last registered first.
func (w *ownWalker) runDefers(env *ownEnv) {
	for i := len(env.defers) - 1; i >= 0; i-- {
		w.useExpr(env.defers[i], env)
	}
	env.defers = nil
}

// closureReleases partitions the tracked resources a closure mentions:
// those used only as Release receivers, and everything else.
func closureReleases(info *types.Info, lit *ast.FuncLit, env *ownEnv) (released, others []types.Object) {
	uses := make(map[types.Object]int)
	releases := make(map[types.Object]int)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(info, call); fn != nil && fn.Name() == "Release" {
				if obj := identObj(info, receiverExpr(call)); obj != nil {
					releases[obj]++
				}
			}
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := identObj(info, id); obj != nil {
				if _, tracked := env.vars[obj]; tracked {
					uses[obj]++
				}
			}
		}
		return true
	})
	for obj := range uses {
		if releases[obj] > 0 {
			released = append(released, obj)
		} else {
			others = append(others, obj)
		}
	}
	return released, others
}
