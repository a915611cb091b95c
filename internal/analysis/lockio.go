package analysis

import (
	"go/ast"
	"go/token"
)

// LockIO enforces the shard/flight lock discipline: a sync.Mutex (or
// RWMutex) in this tree guards in-memory state transitions measured in
// nanoseconds — never a wait. Blocking while holding one turns every
// sibling request into a convoy (and, for Pool.Do under a lock that a
// pool worker also takes, a deadlock). The flightGroup pattern is the
// sanctioned alternative: unlock, wait, relock.
//
// The analysis is lexical, per function body: X.Lock()/X.RLock() adds
// X to the held set, X.Unlock()/X.RUnlock() removes it, `defer
// X.Unlock()` holds X to function end. Branches merge conservatively
// (a branch that ends in return does not clear held state for the
// fallthrough path). While any lock is held, these block and are
// flagged: par Pool.Do/For/ForWorker/Go and package-level
// par.For/ForWorker/MapReduce; net/http client calls and net dialing;
// time.Sleep; sync.WaitGroup.Wait and Cond.Wait on *other* objects;
// channel sends and receives; select statements.
//
// Cross-function effects (a called helper that blocks) are out of
// scope — the rule catches the direct shapes that have bitten and
// keeps the approximation reviewable.
var LockIO = &Analyzer{
	Name: "lockio",
	Doc:  "forbid blocking calls, channel ops, and Pool.Do while holding a sync mutex",
	Run:  runLockIO,
}

func runLockIO(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			st := &lockState{pass: pass, held: make(map[string]bool)}
			st.block(fd.Body)
		}
	}
	return nil
}

// lockState is the lexical held-lock tracking for one function.
type lockState struct {
	pass *Pass
	held map[string]bool
}

func (s *lockState) clone() *lockState {
	c := &lockState{pass: s.pass, held: make(map[string]bool, len(s.held))}
	for k := range s.held {
		c.held[k] = true
	}
	return c
}

// anyHeld returns one held lock's name, or "".
func (s *lockState) anyHeld() string {
	for k := range s.held {
		return k
	}
	return ""
}

// block processes stmts in order, mutating s. Reports whether the
// block terminates (ends in return/panic — its lock effects do not
// reach the caller's continuation).
func (s *lockState) block(b *ast.BlockStmt) bool {
	for _, st := range b.List {
		if s.stmt(st) {
			return true
		}
	}
	return false
}

// stmt processes one statement; reports whether control cannot fall
// through it.
func (s *lockState) stmt(st ast.Stmt) bool {
	switch st := st.(type) {
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			s.expr(r)
		}
		return true
	case *ast.BranchStmt:
		return true // break/continue/goto end this path lexically
	case *ast.ExprStmt:
		s.expr(st.X)
	case *ast.DeferStmt:
		if name, op, ok := lockOp(s.pass, st.Call); ok && (op == "Unlock" || op == "RUnlock") {
			// Held to function end; blocking checks continue to apply.
			_ = name
			return false
		}
		s.checkCall(st.Call)
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			s.expr(r)
		}
		for _, l := range st.Lhs {
			s.expr(l)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.expr(v)
					}
				}
			}
		}
	case *ast.SendStmt:
		s.flagIfHeld(st.Pos(), "sends on a channel")
		s.expr(st.Value)
	case *ast.GoStmt:
		// The goroutine body runs unlocked; don't descend with held state.
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		s.expr(st.Cond)
		body := s.clone()
		bodyTerm := body.block(st.Body)
		var elseTerm bool
		els := s.clone()
		if st.Else != nil {
			elseTerm = els.stmt(st.Else)
		}
		switch {
		case bodyTerm && elseTerm:
			return true
		case bodyTerm:
			s.held = els.held
		case elseTerm:
			s.held = body.held
		default:
			s.held = intersect(body.held, els.held)
		}
	case *ast.BlockStmt:
		return s.block(st)
	case *ast.ForStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		if st.Cond != nil {
			s.expr(st.Cond)
		}
		body := s.clone()
		body.block(st.Body)
		// Continuation keeps the entry state: loop bodies that unlock
		// must re-lock before exiting, which the body pass checks.
	case *ast.RangeStmt:
		s.expr(st.X)
		body := s.clone()
		body.block(st.Body)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		if st.Tag != nil {
			s.expr(st.Tag)
		}
		for _, c := range st.Body.List {
			cl := s.clone()
			for _, cs := range c.(*ast.CaseClause).Body {
				if cl.stmt(cs) {
					break
				}
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			cl := s.clone()
			for _, cs := range c.(*ast.CaseClause).Body {
				if cl.stmt(cs) {
					break
				}
			}
		}
	case *ast.SelectStmt:
		s.flagIfHeld(st.Pos(), "waits in a select")
		for _, c := range st.Body.List {
			cl := s.clone()
			for _, cs := range c.(*ast.CommClause).Body {
				if cl.stmt(cs) {
					break
				}
			}
		}
	case *ast.LabeledStmt:
		return s.stmt(st.Stmt)
	}
	return false
}

// expr scans an expression for lock transitions, blocking calls, and
// channel receives.
func (s *lockState) expr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // runs later, on its own goroutine/stack state
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				s.flagIfHeld(n.Pos(), "receives from a channel")
			}
		case *ast.CallExpr:
			if name, op, ok := lockOp(s.pass, n); ok {
				switch op {
				case "Lock", "RLock":
					s.held[name] = true
				case "Unlock", "RUnlock":
					delete(s.held, name)
				}
				return false
			}
			s.checkCall(n)
		}
		return true
	})
}

// checkCall flags n if it is a known-blocking call made while a lock
// is held.
func (s *lockState) checkCall(n *ast.CallExpr) {
	if len(s.held) == 0 {
		return
	}
	fn := calleeFunc(s.pass.Info, n)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	var what string
	switch {
	case pathHasSuffix(pkg, "internal/par"):
		switch name {
		case "Do", "For", "ForWorker", "Go", "MapReduce":
			what = "dispatches par." + name + " work"
		}
	case pkg == "net/http":
		switch name {
		case "Do", "Get", "Post", "PostForm", "Head":
			what = "performs an HTTP round trip"
		}
	case pkg == "net":
		switch name {
		case "Dial", "DialTimeout", "Listen", "ListenPacket":
			what = "dials/listens on the network"
		}
	case pkg == "time" && name == "Sleep":
		what = "sleeps"
	case pkg == "sync" && name == "Wait":
		what = "waits on a sync primitive"
	}
	if what != "" {
		s.flagIfHeld(n.Pos(), what)
	}
}

// flagIfHeld reports a blocking construct at pos when any lock is
// held, naming one held lock for the message.
func (s *lockState) flagIfHeld(pos token.Pos, what string) {
	if lock := s.anyHeld(); lock != "" {
		s.pass.Reportf(pos, "%s while holding %s; release the lock first (flightGroup pattern: unlock, wait, relock)", what, lock)
	}
}

func intersect(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool)
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// lockOp recognizes X.Lock/Unlock/RLock/RUnlock where X's type is (or
// embeds) a sync mutex, returning X's lexical identity and the op.
func lockOp(pass *Pass, call *ast.CallExpr) (name, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	return exprString(sel.X), sel.Sel.Name, true
}
