// Package translate implements the compiler-side half of the paper's §2.3:
// deriving the deferred regular section descriptors (DMPI_add_array_access
// declarations) from a program's source. The paper notes that while users
// currently declare DRSDs by hand, "this step could be automated in many
// cases" with the techniques of [6,7]; this package does exactly that for
// Go programs written against the dynmpi API.
//
// The analysis walks the AST looking for partitioned loops — `for` loops
// whose bounds come from Phase.Bounds() — and collects every array
// reference of the form
//
//	arr.Row(i)        arr.Row(i+1)        arr.Row(i-2)
//	arr.RowHead(i+c)  arr.Append(i+c, …)  arr.PackRow(i+c)
//
// where i is the loop variable, classifying each as a read or a write from
// its syntactic context (assignment target vs operand). Loop bounds may
// carry constant offsets (`for g := lo+1; g < hi-1; g++`, the interior
// loop of an overlapped halo sweep), and row-kernel closures — single
// parameter function literals bound to an identifier and called from a
// partitioned loop with the loop index ±const — are analysed as if
// inlined, with offsets shifted by the call argument. The result is the
// access list the program must declare, which callers can compare against
// the declarations actually present (the Verify entry point) or print as
// ready-to-paste AddAccess calls (cmd/drsdgen).
//
// The subset handled mirrors the paper's model: unit-stride references
// with constant offsets from the loop variable. References the analysis
// cannot resolve are reported rather than silently dropped.
//
// A translated `for e := arr.RowHead(i); e != nil; e = e.Next()` loop is
// bound by the sparse array's lifetime rule: the array recycles its list
// nodes, so e is valid until the next ClearRow/UnpackRow(s) of row i or a
// SetWindow that drops it. A loop body that clears or rewrites row i (a
// write access the analysis reports) must copy the row out first; the
// analysis derives accesses and does not check this.
package translate

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strconv"
)

// Access is one derived array access: array[i*Step + Off] with Write
// reporting whether the reference stores to the row.
type Access struct {
	Array string
	Write bool
	Step  int
	Off   int
}

// String renders the access as the dynmpi declaration it implies.
func (a Access) String() string {
	mode := "dynmpi.Read"
	if a.Write {
		mode = "dynmpi.ReadWrite"
	}
	return fmt.Sprintf("ph.AddAccess(%q, %s, %d, %+d)", a.Array, mode, a.Step, a.Off)
}

// Issue is a reference the analysis could not resolve to a constant-offset
// access.
type Issue struct {
	Pos    token.Position
	Reason string
}

// Result is the outcome of analysing one source file.
type Result struct {
	// Accesses are the derived declarations, deduplicated and ordered.
	Accesses []Access
	// Declared are the AddAccess calls already present in the source.
	Declared []Access
	// Issues are unresolvable references.
	Issues []Issue
}

// rowMethods maps matrix methods to whether their first argument is the
// row index (all of these reference the distributed dimension).
var rowMethods = map[string]bool{
	"Row": true, "RowHead": true, "RowLen": true, "Append": true,
	"PackRow": true, "UnpackRow": true, "ClearRow": true, "RowWireBytes": true,
}

// writeMethods are row methods that always store.
var writeMethods = map[string]bool{
	"Append": true, "UnpackRow": true, "ClearRow": true,
}

// AnalyzeFile parses and analyses one Go source file.
func AnalyzeFile(filename string, src any) (*Result, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, 0)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	kernels := collectKernels(file)
	ast.Inspect(file, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		iv, bounded := loopVar(loop)
		if !bounded {
			return true
		}
		collectLoop(fset, loop.Body, iv, 0, kernels, map[string]bool{}, res)
		return true
	})
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if d, ok := declaredAccess(call); ok {
			res.Declared = append(res.Declared, d)
		}
		return true
	})
	res.Accesses = dedup(res.Accesses)
	res.Declared = dedup(res.Declared)
	return res, nil
}

// loopVar recognises the partitioned-loop idiom
//
//	for g := lo; g < hi; g++ { ... }
//
// where lo/hi descend from a Bounds() call (directly, or via the common
// `lo, hi := ph.Bounds()` assignment appearing anywhere in the file —
// tracking the exact dataflow is unnecessary for the paper's loop shape,
// so any int-bounded unit-stride loop whose bound identifiers are named
// lo/hi/start/end or *_iter qualifies).
func loopVar(loop *ast.ForStmt) (string, bool) {
	assign, ok := loop.Init.(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 {
		return "", false
	}
	name, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return "", false
	}
	inc, ok := loop.Post.(*ast.IncDecStmt)
	if !ok || inc.Tok != token.INC {
		return "", false
	}
	cond, ok := loop.Cond.(*ast.BinaryExpr)
	if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) {
		return "", false
	}
	hi, ok := boundIdent(cond.Y)
	if !ok {
		return "", false
	}
	lo, ok := boundIdent(assign.Rhs[0])
	if !ok {
		// `for g := 0; ...` style: only bounded loops over Bounds()
		// variables are partitioned.
		return "", false
	}
	if !boundsName(lo.Name) || !boundsName(hi.Name) {
		return "", false
	}
	return name.Name, true
}

// boundIdent resolves a loop bound to its underlying partition-bound
// identifier, looking through constant offsets: `lo`, `lo+1`, `hi-1`. The
// interior loop of an overlapped halo sweep (`for g := lo+1; g < hi-1;
// g++`) spans a subset of the partition, so the same regular-section model
// applies.
func boundIdent(e ast.Expr) (*ast.Ident, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		return x, true
	case *ast.ParenExpr:
		return boundIdent(x.X)
	case *ast.BinaryExpr:
		if x.Op != token.ADD && x.Op != token.SUB {
			return nil, false
		}
		if lit, ok := x.Y.(*ast.BasicLit); ok && lit.Kind == token.INT {
			return boundIdent(x.X)
		}
		return nil, false
	}
	return nil, false
}

// collectKernels finds row-kernel closures: single-parameter function
// literals bound to an identifier (`computeRow := func(g int) { ... }`).
// A partitioned loop that calls such a kernel with the loop index (±const)
// is analysed as if the kernel body were inlined at the call site, with
// the kernel's parameter standing for the shifted loop index.
func collectKernels(file *ast.File) map[string]*ast.FuncLit {
	kernels := map[string]*ast.FuncLit{}
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		name, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		lit, ok := as.Rhs[0].(*ast.FuncLit)
		if !ok {
			return true
		}
		params := lit.Type.Params.List
		if len(params) != 1 || len(params[0].Names) != 1 {
			return true
		}
		kernels[name.Name] = lit
		return true
	})
	return kernels
}

func boundsName(s string) bool {
	switch s {
	case "lo", "hi", "start", "end", "startIter", "endIter", "start_iter", "end_iter", "rlo", "rhi", "blo", "bhi":
		return true
	}
	return false
}

// collectLoop walks a partitioned loop (or inlined kernel) body for row
// references made at index iv±const; shift is the constant offset the call
// chain has already applied to iv (0 at the loop itself). Kernel calls
// recurse with the kernel parameter as the new index variable; inlining
// guards against self-recursive kernels.
func collectLoop(fset *token.FileSet, body ast.Node, iv string, shift int, kernels map[string]*ast.FuncLit, inlining map[string]bool, res *Result) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && len(call.Args) == 1 {
			if lit := kernels[id.Name]; lit != nil && !inlining[id.Name] {
				off, refsLoop, err := offsetOf(call.Args[0], iv)
				if err != nil {
					res.Issues = append(res.Issues, Issue{
						Pos:    fset.Position(call.Pos()),
						Reason: fmt.Sprintf("%s: %v", id.Name, err),
					})
					return true
				}
				if refsLoop {
					param := lit.Type.Params.List[0].Names[0].Name
					inlining[id.Name] = true
					collectLoop(fset, lit.Body, param, shift+off, kernels, inlining, res)
					delete(inlining, id.Name)
				}
				return true
			}
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !rowMethods[sel.Sel.Name] || len(call.Args) == 0 {
			return true
		}
		recv, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		off, refsLoop, err := offsetOf(call.Args[0], iv)
		if err != nil {
			res.Issues = append(res.Issues, Issue{
				Pos:    fset.Position(call.Pos()),
				Reason: fmt.Sprintf("%s.%s: %v", recv.Name, sel.Sel.Name, err),
			})
			return true
		}
		if !refsLoop {
			return true // constant row; not a distributed reference
		}
		res.Accesses = append(res.Accesses, Access{
			Array: recv.Name,
			Write: writeMethods[sel.Sel.Name], // element stores are detected in the write pass
			Step:  1,
			Off:   off + shift,
		})
		return true
	})
}

// offsetOf resolves expressions of the form i, i+c, i-c, c+i to a constant
// offset from the loop variable; refsLoop reports whether the loop
// variable appears at all.
func offsetOf(e ast.Expr, iv string) (off int, refsLoop bool, err error) {
	switch x := e.(type) {
	case *ast.Ident:
		if x.Name == iv {
			return 0, true, nil
		}
		return 0, false, nil
	case *ast.BasicLit:
		return 0, false, nil
	case *ast.ParenExpr:
		return offsetOf(x.X, iv)
	case *ast.BinaryExpr:
		if x.Op != token.ADD && x.Op != token.SUB {
			return 0, false, fmt.Errorf("unsupported operator %v on loop index", x.Op)
		}
		l, lRefs, lerr := offsetOf(x.X, iv)
		if lerr != nil {
			return 0, false, lerr
		}
		rLit, rOk := x.Y.(*ast.BasicLit)
		if lRefs && rOk && rLit.Kind == token.INT {
			c, _ := strconv.Atoi(rLit.Value)
			if x.Op == token.SUB {
				c = -c
			}
			return l + c, true, nil
		}
		lLit, lOk := x.X.(*ast.BasicLit)
		r, rRefs, rerr := offsetOf(x.Y, iv)
		if rerr != nil {
			return 0, false, rerr
		}
		if rRefs && lOk && lLit.Kind == token.INT && x.Op == token.ADD {
			c, _ := strconv.Atoi(lLit.Value)
			return r + c, true, nil
		}
		if lRefs || rRefs {
			return 0, false, fmt.Errorf("non-constant offset from loop index")
		}
		return 0, false, nil
	default:
		// Any other expression containing the loop variable is beyond the
		// constant-offset model.
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == iv {
				found = true
			}
			return true
		})
		if found {
			return 0, false, fmt.Errorf("reference too complex for a regular section")
		}
		return 0, false, nil
	}
}

// AnalyzeFileWithWrites runs the full pipeline: AnalyzeFile plus a write
// pass that upgrades any access whose row expression occurs on the
// left-hand side of an assignment (`X.Row(i±c)[…] = …`), as the first
// argument of copy, or in an inc/dec statement.
func AnalyzeFileWithWrites(filename string, src any) (*Result, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, 0)
	if err != nil {
		return nil, err
	}
	res, err := AnalyzeFile(filename, src)
	if err != nil {
		return nil, err
	}
	kernels := collectKernels(file)
	writes := map[string]map[int]bool{} // array -> offsets written
	record := func(e ast.Expr, iv string, shift int) {
		call := rowCallIn(e)
		if call == nil {
			return
		}
		sel := call.Fun.(*ast.SelectorExpr)
		recv, ok := sel.X.(*ast.Ident)
		if !ok {
			return
		}
		off, refs, err := offsetOf(call.Args[0], iv)
		if err != nil || !refs {
			return
		}
		if writes[recv.Name] == nil {
			writes[recv.Name] = map[int]bool{}
		}
		writes[recv.Name][off+shift] = true
	}
	var scanWrites func(body ast.Node, iv string, shift int, inlining map[string]bool)
	scanWrites = func(body ast.Node, iv string, shift int, inlining map[string]bool) {
		ast.Inspect(body, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					record(lhs, iv, shift)
				}
			case *ast.CallExpr:
				if id, ok := s.Fun.(*ast.Ident); ok {
					if id.Name == "copy" && len(s.Args) == 2 {
						record(s.Args[0], iv, shift)
					} else if lit := kernels[id.Name]; lit != nil && len(s.Args) == 1 && !inlining[id.Name] {
						if off, refs, err := offsetOf(s.Args[0], iv); err == nil && refs {
							param := lit.Type.Params.List[0].Names[0].Name
							inlining[id.Name] = true
							scanWrites(lit.Body, param, shift+off, inlining)
							delete(inlining, id.Name)
						}
					}
				}
			case *ast.IncDecStmt:
				record(s.X, iv, shift)
			}
			return true
		})
	}
	ast.Inspect(file, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		iv, bounded := loopVar(loop)
		if !bounded {
			return true
		}
		scanWrites(loop.Body, iv, 0, map[string]bool{})
		return true
	})
	for i, a := range res.Accesses {
		if writes[a.Array] != nil && writes[a.Array][a.Off] {
			res.Accesses[i].Write = true
		}
	}
	res.Accesses = dedup(res.Accesses)
	return res, nil
}

// rowCallIn digs a Row(...) call out of an index/slice expression chain.
func rowCallIn(e ast.Expr) *ast.CallExpr {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && rowMethods[sel.Sel.Name] && len(x.Args) > 0 {
				return x
			}
			return nil
		default:
			return nil
		}
	}
}

// declaredAccess recognises an existing ph.AddAccess("A", mode, step, off)
// call in the source.
func declaredAccess(call *ast.CallExpr) (Access, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "AddAccess" || len(call.Args) != 4 {
		return Access{}, false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return Access{}, false
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return Access{}, false
	}
	step, ok1 := intArg(call.Args[2])
	off, ok2 := intArg(call.Args[3])
	if !ok1 || !ok2 {
		return Access{}, false
	}
	write := false
	if modeSel, ok := call.Args[1].(*ast.SelectorExpr); ok {
		switch modeSel.Sel.Name {
		case "Write", "ReadWrite", "DMPI_WRITE", "DMPI_READWRITE":
			write = true
		}
	}
	return Access{Array: name, Write: write, Step: step, Off: off}, true
}

func intArg(e ast.Expr) (int, bool) {
	neg := false
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.SUB {
		neg = true
		e = u.X
	}
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return 0, false
	}
	v, err := strconv.Atoi(lit.Value)
	if err != nil {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// dedup sorts and deduplicates accesses, merging read+write of the same
// (array, step, off) into a write.
func dedup(in []Access) []Access {
	type key struct {
		array     string
		step, off int
	}
	m := map[key]bool{}
	order := []key{}
	for _, a := range in {
		k := key{a.Array, a.Step, a.Off}
		if _, seen := m[k]; !seen {
			order = append(order, k)
		}
		m[k] = m[k] || a.Write
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].array != order[j].array {
			return order[i].array < order[j].array
		}
		return order[i].off < order[j].off
	})
	out := make([]Access, 0, len(order))
	for _, k := range order {
		out = append(out, Access{Array: k.array, Write: m[k], Step: k.step, Off: k.off})
	}
	return out
}

// Missing returns derived accesses with no matching declaration (same
// array, step and offset; a declared write covers a derived read).
func (r *Result) Missing() []Access {
	covered := func(a Access) bool {
		for _, d := range r.Declared {
			if d.Array == a.Array && d.Step == a.Step && d.Off == a.Off && (d.Write || !a.Write) {
				return true
			}
		}
		return false
	}
	var out []Access
	for _, a := range r.Accesses {
		if !covered(a) {
			out = append(out, a)
		}
	}
	return out
}
