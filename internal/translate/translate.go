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
// its syntactic context (assignment target vs operand) in the same walk, and
// naming it by the array's registered name, as the declarations do
// (`u := rt.RegisterDense("U", …)` makes u's references accesses of "U").
// Loop bounds may carry constant offsets (`for g := lo+1; g < hi-1; g++`,
// the interior loop of an overlapped halo sweep), and row-kernel closures —
// single parameter function literals bound to an identifier and called from
// a partitioned loop with the loop index ±const — are analysed as if
// inlined, with offsets shifted by the call argument. The result is the
// access list the program must declare, which callers can compare against
// the declarations actually present (Result.Missing) or print as
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
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"strings"
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

// rowMethods are the matrix methods whose first argument is the row index
// (all of these reference the distributed dimension), each mapped to
// whether it always stores.
var rowMethods = map[string]bool{
	"Row": false, "RowHead": false, "RowLen": false, "PackRow": false, "RowWireBytes": false,
	"Append": true, "UnpackRow": true, "ClearRow": true,
}

// registerMethods register a distributed array under the name its access
// declarations use (dynmpi's and dmpic's spellings).
var registerMethods = map[string]bool{
	"RegisterDense": true, "RegisterSparse": true,
	"DMPI_register_dense_array": true, "DMPI_register_sparse_array": true,
}

// AnalyzeFile parses and analyses one Go source file.
func AnalyzeFile(filename string, src any) (*Result, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, 0)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	w := &walker{fset: fset, kernels: collectKernels(file), inlining: map[string]bool{}, res: res}
	registered := map[string]string{} // array variable -> registered name
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if iv, bounded := loopVar(n); bounded {
				w.loop(n.Body, iv, 0)
			}
		case *ast.AssignStmt:
			recordRegistrations(n, registered)
		case *ast.CallExpr:
			if d, ok := declaredAccess(n); ok {
				res.Declared = append(res.Declared, d)
			}
		}
		return true
	})
	for i, a := range res.Accesses {
		if name, ok := registered[a.Array]; ok {
			res.Accesses[i].Array = name
		}
	}
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
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			name, isIdent := as.Lhs[0].(*ast.Ident)
			lit, isLit := as.Rhs[0].(*ast.FuncLit)
			if isIdent && isLit && len(lit.Type.Params.List) == 1 && len(lit.Type.Params.List[0].Names) == 1 {
				kernels[name.Name] = lit
			}
		}
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

// walker derives one file's accesses into res. kernels are the file's
// row-kernel closures; inlining names the kernels on the current call chain,
// guarding against self-recursive kernels.
type walker struct {
	fset     *token.FileSet
	kernels  map[string]*ast.FuncLit
	inlining map[string]bool
	res      *Result
}

// loop walks a partitioned loop (or inlined kernel) body for row references
// made at index iv±const; shift is the constant offset the call chain has
// already applied to iv (0 at the loop itself). A reference is a write when
// its method always stores or when it is the target of an assignment, of
// copy or of an inc/dec statement: the walk meets each statement before the
// row call inside it. A kernel call recurses with the kernel's parameter as
// the index variable.
func (w *walker) loop(body ast.Node, iv string, shift int) {
	written := map[*ast.CallExpr]bool{}
	mark := func(e ast.Expr) {
		if call := callIn(e); call != nil {
			written[call] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.CallExpr:
			id, isIdent := n.Fun.(*ast.Ident)
			switch {
			case !isIdent:
				w.rowRef(n, iv, shift, written[n])
			case id.Name == "copy" && len(n.Args) == 2:
				mark(n.Args[0])
			case w.kernels[id.Name] != nil && len(n.Args) == 1 && !w.inlining[id.Name]:
				off, refsLoop, err := offsetOf(n.Args[0], iv)
				if err != nil {
					w.issue(n, id.Name, err)
				} else if refsLoop {
					lit := w.kernels[id.Name]
					w.inlining[id.Name] = true
					w.loop(lit.Body, lit.Type.Params.List[0].Names[0].Name, shift+off)
					delete(w.inlining, id.Name)
				}
			}
		}
		return true
	})
}

// rowRef records call as an access if it is a row method of an array
// variable indexed at iv±const.
func (w *walker) rowRef(call *ast.CallExpr, iv string, shift int, write bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	stores, isRow := rowMethods[sel.Sel.Name]
	recv, ok := sel.X.(*ast.Ident)
	if !isRow || !ok {
		return
	}
	off, refsLoop, err := offsetOf(call.Args[0], iv)
	if err != nil {
		w.issue(call, recv.Name+"."+sel.Sel.Name, err)
		return
	}
	if !refsLoop {
		return // constant row; not a distributed reference
	}
	w.res.Accesses = append(w.res.Accesses, Access{
		Array: recv.Name,
		Write: write || stores,
		Step:  1,
		Off:   off + shift,
	})
}

func (w *walker) issue(call *ast.CallExpr, what string, err error) {
	w.res.Issues = append(w.res.Issues, Issue{Pos: w.fset.Position(call.Pos()), Reason: fmt.Sprintf("%s: %v", what, err)})
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

// callIn digs the call at the root of an index/slice expression chain
// (`X.Row(i)[j]`, `X.Row(i)[a:b]`) out of e; rowRef decides whether it is a
// row reference.
func callIn(e ast.Expr) *ast.CallExpr {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.CallExpr:
			return x
		default:
			return nil
		}
	}
}

// declaredAccess recognises an existing ph.AddAccess("A", mode, step, off)
// call (or dmpic's DMPI_add_array_access) in the source.
func declaredAccess(call *ast.CallExpr) (Access, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "AddAccess" && sel.Sel.Name != "DMPI_add_array_access") || len(call.Args) != 4 {
		return Access{}, false
	}
	name, ok := stringArg(call.Args[0])
	if !ok {
		return Access{}, false
	}
	step, ok1 := intArg(call.Args[2])
	off, ok2 := intArg(call.Args[3])
	if !ok1 || !ok2 {
		return Access{}, false
	}
	mode := call.Args[1]
	if sel, ok := mode.(*ast.SelectorExpr); ok {
		mode = sel.Sel
	}
	write := false
	if id, ok := mode.(*ast.Ident); ok {
		switch id.Name {
		case "Write", "ReadWrite", "DMPI_WRITE", "DMPI_READWRITE":
			write = true
		}
	}
	return Access{Array: name, Write: write, Step: step, Off: off}, true
}

// recordRegistrations maps each `v := x.RegisterDense("NAME", …)` in as
// (or any other registerMethods call) to names[v] = "NAME": the analysis
// meets the array as v, its declarations name it NAME.
func recordRegistrations(as *ast.AssignStmt, names map[string]string) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		v, ok := lhs.(*ast.Ident)
		call, isCall := as.Rhs[i].(*ast.CallExpr)
		if !ok || !isCall || len(call.Args) == 0 {
			continue
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && registerMethods[sel.Sel.Name] {
			if name, ok := stringArg(call.Args[0]); ok {
				names[v.Name] = name
			}
		}
	}
}

func stringArg(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

func intArg(e ast.Expr) (int, bool) {
	neg := false
	if u, ok := e.(*ast.UnaryExpr); ok && (u.Op == token.SUB || u.Op == token.ADD) {
		neg = u.Op == token.SUB
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

// dedup sorts accesses by array, offset and step, and merges those of one
// (array, step, off), a write if any of them is.
func dedup(in []Access) []Access {
	slices.SortStableFunc(in, func(a, b Access) int {
		return cmp.Or(strings.Compare(a.Array, b.Array), a.Off-b.Off, a.Step-b.Step)
	})
	out := in[:0]
	for _, a := range in {
		if k := len(out) - 1; k >= 0 && out[k].Array == a.Array && out[k].Step == a.Step && out[k].Off == a.Off {
			out[k].Write = out[k].Write || a.Write
			continue
		}
		out = append(out, a)
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
