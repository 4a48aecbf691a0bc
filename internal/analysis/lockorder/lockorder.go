// Package lockorder infers the whole-program lock acquisition graph and
// checks it against the documented hierarchy. Lock classes are mutex
// struct fields (DB.mu, the striped pool's shard mu, the admission
// gate's mu); an edge A → B means some path acquires B while
// holding A — either directly, through a call whose transitive
// acquisitions include B, or from a function whose doc contract says
// "callers must hold A.<field>" and which then locks B.
//
// Two invariants are enforced. First, the graph must be acyclic: a
// cycle is a deadlock schedule waiting for two goroutines. Second,
// fields annotated with a rank comment
//
//	mu sync.Mutex // lockrank: 30
//
// must be acquired in strictly increasing rank order; an edge from a
// ranked lock to an equal-or-lower-ranked one is a violation even
// before any cycle closes. Unranked classes participate only in the
// cycle check. Recursive acquisition of the same class (directly, or by
// calling a function that acquires a lock the caller already holds) is
// always reported.
//
// Soundness boundary, chosen to keep findings actionable: calls through
// interfaces are not resolved (the striped pool calling inner.Read
// binds to whatever Pager the test injected), and function literals are
// analyzed as separate roots with an empty held-set (a goroutine body
// does not inherit its spawner's locks). Both under-approximate, never
// false-positive.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"mstsearch/internal/analysis"
)

// Analyzer is the lock-ordering invariant check.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "the inferred lock acquisition graph must be acyclic and respect " +
		"the lockrank annotations on mutex fields",
	RunProgram: run,
}

// Debug, when set (mstlint -lockgraph), receives the inferred
// acquisition graph, one "A -> B @ position" line per deduped edge.
var Debug io.Writer

// lockClass is one mutex field, the unit of the ordering.
type lockClass struct {
	label string // pkg.Type.field
	rank  int    // -1 when unranked
}

var rankRE = regexp.MustCompile(`lockrank:\s*(\d+)`)

// funcInfo is one function's events and derived facts.
type funcInfo struct {
	decl     *ast.FuncDecl
	pkg      *analysis.Package
	roots    []*ast.BlockStmt // the decl body plus each function literal
	events   [][]lockEvent    // per root, position-ordered
	contract []*types.Var     // classes held on entry per the doc contract

	acquires map[*types.Var]bool // transitive, over static calls
}

type edge struct{ from, to *types.Var }

func run(pass *analysis.ProgramPass) error {
	classes := collectClasses(pass.Program)
	fns := collectFuncs(pass.Program, classes)
	for _, fi := range fns {
		for _, root := range fi.roots {
			fi.events = append(fi.events, events(fi.pkg, root, classes))
		}
	}

	// Fixpoint: the classes a call to fn may acquire. Only the declared
	// body counts — a literal inside fn may run later (goroutine, defer)
	// and its acquisitions are not the caller's.
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			for _, ev := range fi.events[0] {
				switch ev.kind {
				case evAcquire:
					if !fi.acquires[ev.class] {
						fi.acquires[ev.class] = true
						changed = true
					}
				case evCall:
					if callee := fns[ev.callee]; callee != nil {
						for c := range callee.acquires {
							if !fi.acquires[c] {
								fi.acquires[c] = true
								changed = true
							}
						}
					}
				}
			}
		}
	}

	// Walk every root with its held-set, building the edge list and
	// reporting recursive acquisition as it happens.
	edges := map[edge]token.Pos{}
	for _, fi := range fns {
		for i := range fi.roots {
			held := map[*types.Var]int{}
			if i == 0 { // contracts bind the declared body only
				for _, c := range fi.contract {
					held[c]++
				}
			}
			for _, ev := range fi.events[i] {
				switch ev.kind {
				case evAcquire:
					if held[ev.class] > 0 {
						pass.Reportf(ev.pos, "recursive acquisition of %s: it is already held here; this deadlocks (sync mutexes are not reentrant)",
							classes[ev.class].label)
					}
					for l := range held {
						if held[l] > 0 && l != ev.class {
							addEdge(edges, l, ev.class, ev.pos)
						}
					}
					held[ev.class]++
				case evRelease:
					if held[ev.class] > 0 {
						held[ev.class]--
					}
				case evCall:
					callee := fns[ev.callee]
					if callee == nil {
						continue
					}
					for c := range callee.acquires {
						if held[c] > 0 {
							pass.Reportf(ev.pos, "calls %s, which acquires %s while it is already held here; this deadlocks",
								ev.callee.Name(), classes[c].label)
							continue
						}
						for l := range held {
							if held[l] > 0 {
								addEdge(edges, l, c, ev.pos)
							}
						}
					}
				}
			}
		}
	}

	if Debug != nil {
		dumpEdges(pass, classes, edges)
	}

	// Rank violations: every edge must strictly increase.
	for e, pos := range edges {
		from, to := classes[e.from], classes[e.to]
		if from.rank >= 0 && to.rank >= 0 && from.rank >= to.rank {
			pass.Reportf(pos, "acquires %s (lockrank %d) while holding %s (lockrank %d); the documented hierarchy requires strictly increasing ranks",
				to.label, to.rank, from.label, from.rank)
		}
	}

	// Cycles: strongly connected components of size > 1. (Self-loops
	// never enter the edge map; recursion is reported directly above.)
	for _, scc := range stronglyConnected(edges) {
		labels := make([]string, len(scc))
		for i, c := range scc {
			labels[i] = classes[c].label
		}
		sort.Strings(labels)
		pos := token.NoPos
		for e, p := range edges {
			if inSCC(scc, e.from) && inSCC(scc, e.to) && (pos == token.NoPos || p < pos) {
				pos = p
			}
		}
		pass.Reportf(pos, "lock-order cycle between %s: two goroutines interleaving these acquisitions deadlock; pick one order and rank the fields",
			strings.Join(labels, ", "))
	}
	return nil
}

func addEdge(edges map[edge]token.Pos, from, to *types.Var, pos token.Pos) {
	e := edge{from, to}
	if _, ok := edges[e]; !ok {
		edges[e] = pos
	}
}

// collectClasses finds every sync.Mutex / sync.RWMutex struct field in
// the program and its optional lockrank annotation.
func collectClasses(prog *analysis.Program) map[*types.Var]lockClass {
	classes := map[*types.Var]lockClass{}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					if !isMutexType(pkg.Info.Types[field.Type].Type) {
						continue
					}
					rank := -1
					for _, cg := range [2]*ast.CommentGroup{field.Doc, field.Comment} {
						if cg == nil {
							continue
						}
						if m := rankRE.FindStringSubmatch(cg.Text()); m != nil {
							rank, _ = strconv.Atoi(m[1])
						}
					}
					for _, name := range field.Names {
						v, _ := pkg.Info.Defs[name].(*types.Var)
						if v == nil {
							continue
						}
						classes[v] = lockClass{
							label: fmt.Sprintf("%s.%s.%s", pkg.Types.Name(), ts.Name.Name, name.Name),
							rank:  rank,
						}
					}
				}
				return true
			})
		}
	}
	return classes
}

func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

var mustHoldRE = regexp.MustCompile(`must hold\s+(?:\w+\.)?(\w+)`)

// collectFuncs gathers every declared function, its literal roots, and
// its "callers must hold" contract resolved against the receiver type.
func collectFuncs(prog *analysis.Program, classes map[*types.Var]lockClass) map[*types.Func]*funcInfo {
	fns := map[*types.Func]*funcInfo{}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				fi := &funcInfo{
					decl:     fd,
					pkg:      pkg,
					roots:    []*ast.BlockStmt{fd.Body},
					acquires: map[*types.Var]bool{},
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						fi.roots = append(fi.roots, lit.Body)
					}
					return true
				})
				if fd.Doc != nil {
					doc := strings.ToLower(strings.Join(strings.Fields(fd.Doc.Text()), " "))
					for _, m := range mustHoldRE.FindAllStringSubmatch(doc, -1) {
						if c := receiverLockField(fn, m[1], classes); c != nil {
							fi.contract = append(fi.contract, c)
						}
					}
				}
				fns[fn] = fi
			}
		}
	}
	return fns
}

// receiverLockField resolves a contract field name against the
// receiver's struct fields.
func receiverLockField(fn *types.Func, name string, classes map[*types.Var]lockClass) *types.Var {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		fld := st.Field(i)
		if strings.EqualFold(fld.Name(), name) {
			if _, ok := classes[fld]; ok {
				return fld
			}
		}
	}
	return nil
}

// event kinds in source order within one root.
const (
	evAcquire = iota
	evRelease
	evCall
)

type lockEvent struct {
	kind   int
	pos    token.Pos
	class  *types.Var  // acquire/release
	callee *types.Func // call
}

// events lists a root's acquisitions, releases and static calls in
// position order, not descending into nested literals (they are their
// own roots). Deferred releases are dropped — the lock is held to the
// end of the root, which is exactly what leaving it in the held-set
// models.
func events(pkg *analysis.Package, root *ast.BlockStmt, classes map[*types.Var]lockClass) []lockEvent {
	var evs []lockEvent
	deferred := map[*ast.CallExpr]bool{}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return n.Body == root // only descend into the root itself
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if ok {
				switch sel.Sel.Name {
				case "Lock", "RLock", "Unlock", "RUnlock":
					if c := lockFieldOf(pkg.Info, sel.X); c != nil {
						if _, isClass := classes[c]; isClass {
							kind := evAcquire
							if strings.Contains(sel.Sel.Name, "Unlock") {
								kind = evRelease
								if deferred[n] {
									return true
								}
							}
							evs = append(evs, lockEvent{kind: kind, pos: n.Pos(), class: c})
							return true
						}
					}
				}
			}
			if fn := calleeFunc(pkg.Info, n); fn != nil {
				evs = append(evs, lockEvent{kind: evCall, pos: n.Pos(), callee: fn})
			}
		}
		return true
	}
	for _, stmt := range root.List {
		ast.Inspect(stmt, walk)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	return evs
}

// lockFieldOf resolves the receiver of a Lock/Unlock call to the mutex
// field being locked (db.mu, sh.mu, p.shards[i].mu).
func lockFieldOf(info *types.Info, x ast.Expr) *types.Var {
	sel, ok := x.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// stronglyConnected returns the SCCs of the edge graph with more than
// one member (Tarjan).
func stronglyConnected(edges map[edge]token.Pos) [][]*types.Var {
	adj := map[*types.Var][]*types.Var{}
	for e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	var (
		index    = map[*types.Var]int{}
		low      = map[*types.Var]int{}
		onStack  = map[*types.Var]bool{}
		stack    []*types.Var
		counter  int
		out      [][]*types.Var
		strongly func(v *types.Var)
	)
	strongly = func(v *types.Var) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongly(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*types.Var
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				out = append(out, scc)
			}
		}
	}
	for v := range adj {
		if _, seen := index[v]; !seen {
			strongly(v)
		}
	}
	return out
}

func inSCC(scc []*types.Var, v *types.Var) bool {
	for _, c := range scc {
		if c == v {
			return true
		}
	}
	return false
}

// dumpEdges writes the inferred graph for mstlint -lockgraph.
func dumpEdges(pass *analysis.ProgramPass, classes map[*types.Var]lockClass, edges map[edge]token.Pos) {
	lines := make([]string, 0, len(edges))
	for e, pos := range edges {
		lines = append(lines, fmt.Sprintf("%s -> %s @ %s", classes[e.from].label, classes[e.to].label, pass.Fset.Position(pos)))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(Debug, l)
	}
}
