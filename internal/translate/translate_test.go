package translate

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const jacobiSrc = `package main

func kernel(rt *Runtime, a, b *Dense, ph *Phase, n int) {
	for t := 0; t < 100; t++ {
		lo, hi := ph.Bounds()
		for g := lo; g < hi; g++ {
			up, mid, down := b.Row(g-1), b.Row(g), b.Row(g+1)
			out := a.Row(g)
			for j := 1; j < n-1; j++ {
				out[j] = 0.25 * (up[j] + down[j] + mid[j-1] + mid[j+1])
			}
		}
	}
}
`

func TestDeriveJacobiAccesses(t *testing.T) {
	res, err := AnalyzeFile("jacobi.go", jacobiSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Issues) != 0 {
		t.Fatalf("issues: %v", res.Issues)
	}
	want := map[string]bool{ // "array off" -> write
		"a +0": false, // the element store is through `out`, a local alias —
		// detectable only with dataflow; the direct Row(g) read is derived
		"b -1": false,
		"b +0": false,
		"b +1": false,
	}
	if len(res.Accesses) != len(want) {
		t.Fatalf("derived %v, want %d accesses", res.Accesses, len(want))
	}
	for _, a := range res.Accesses {
		key := a.Array + " " + plus(a.Off)
		w, ok := want[key]
		if !ok {
			t.Fatalf("unexpected access %v", a)
		}
		if a.Write != w {
			t.Fatalf("access %v write=%v, want %v", a, a.Write, w)
		}
		if a.Step != 1 {
			t.Fatalf("access %v step", a)
		}
	}
}

func plus(v int) string {
	if v >= 0 {
		return "+" + itoa(v)
	}
	return itoa(v)
}

func itoa(v int) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + itoa(v%10)
}

const directWriteSrc = `package main

func kernel(a *Dense, ph *Phase) {
	lo, hi := ph.Bounds()
	for i := lo; i < hi; i++ {
		a.Row(i)[0] = 1
		copy(a.Row(i+1), a.Row(i-1))
		a.Row(i)[2]++
	}
}
`

func TestWriteDetection(t *testing.T) {
	res, err := AnalyzeFile("w.go", directWriteSrc)
	if err != nil {
		t.Fatal(err)
	}
	byOff := map[int]Access{}
	for _, a := range res.Accesses {
		byOff[a.Off] = a
	}
	if !byOff[0].Write {
		t.Fatalf("Row(i)[0]=… not detected as write: %v", res.Accesses)
	}
	if !byOff[1].Write {
		t.Fatalf("copy(Row(i+1),…) not detected as write: %v", res.Accesses)
	}
	if byOff[-1].Write {
		t.Fatalf("Row(i-1) wrongly a write: %v", res.Accesses)
	}
}

const sparseSrc = `package main

func kernel(s *Sparse, ph *Phase) {
	lo, hi := ph.Bounds()
	for g := lo; g < hi; g++ {
		for e := s.RowHead(g); e != nil; e = e.Next() {
			_ = e
		}
		s.Append(g, 0, 1)
		p := s.PackRow(g + 1)
		_ = p
	}
}
`

func TestSparseMethods(t *testing.T) {
	res, err := AnalyzeFile("s.go", sparseSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accesses) != 2 {
		t.Fatalf("accesses %v", res.Accesses)
	}
	if !res.Accesses[0].Write || res.Accesses[0].Off != 0 {
		t.Fatalf("Append access %v", res.Accesses[0])
	}
	if res.Accesses[1].Write || res.Accesses[1].Off != 1 {
		t.Fatalf("PackRow access %v", res.Accesses[1])
	}
}

const complexSrc = `package main

func kernel(a *Dense, ph *Phase, m int) {
	lo, hi := ph.Bounds()
	for i := lo; i < hi; i++ {
		_ = a.Row(i * 2)
		_ = a.Row(i + m)
	}
}
`

func TestUnresolvableReferencesReported(t *testing.T) {
	res, err := AnalyzeFile("c.go", complexSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Issues) != 2 {
		t.Fatalf("issues %v, want 2 (strided and symbolic offsets)", res.Issues)
	}
	for _, is := range res.Issues {
		if !strings.Contains(is.Reason, "a.Row") {
			t.Fatalf("issue lacks context: %v", is)
		}
	}
}

const constantRowSrc = `package main

func kernel(a *Dense, ph *Phase) {
	lo, hi := ph.Bounds()
	for i := lo; i < hi; i++ {
		_ = a.Row(0) // constant row: replicated data, not a distributed reference
	}
}
`

func TestConstantRowIgnored(t *testing.T) {
	res, err := AnalyzeFile("k.go", constantRowSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accesses) != 0 || len(res.Issues) != 0 {
		t.Fatalf("constant row misclassified: %v %v", res.Accesses, res.Issues)
	}
}

const declaredSrc = `package main

func setup(ph *Phase) {
	ph.AddAccess("A", dynmpi.ReadWrite, 1, 0)
	ph.AddAccess("B", dynmpi.Read, 1, -1)
}

func kernel(A, B *Dense, ph *Phase) {
	lo, hi := ph.Bounds()
	for i := lo; i < hi; i++ {
		A.Row(i)[0] = B.Row(i-1)[0] + B.Row(i+1)[0]
	}
}
`

func TestMissingDeclarations(t *testing.T) {
	res, err := AnalyzeFile("d.go", declaredSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Declared) != 2 {
		t.Fatalf("declared %v", res.Declared)
	}
	missing := res.Missing()
	// A(+0, write) is declared; B(-1, read) is declared; B(+1, read) is NOT.
	if len(missing) != 1 || missing[0].Array != "B" || missing[0].Off != 1 {
		t.Fatalf("missing %v, want the undeclared B(+1) read", missing)
	}
}

func TestAccessString(t *testing.T) {
	a := Access{Array: "A", Write: true, Step: 1, Off: -1}
	if got := a.String(); got != `ph.AddAccess("A", dynmpi.ReadWrite, 1, -1)` {
		t.Fatalf("String = %s", got)
	}
	r := Access{Array: "B", Step: 1, Off: 2}
	if got := r.String(); got != `ph.AddAccess("B", dynmpi.Read, 1, +2)` {
		t.Fatalf("String = %s", got)
	}
}

func TestParseErrorPropagates(t *testing.T) {
	if _, err := AnalyzeFile("bad.go", "not go"); err == nil {
		t.Fatal("expected parse error")
	}
}

// TestRealApplications runs the analyzer over the repository's own
// applications and checks it derives sensible access lists.
func TestRealApplications(t *testing.T) {
	res, err := AnalyzeFile("../apps/jacobi/jacobi.go", nil)
	if err != nil {
		t.Fatal(err)
	}
	// The Jacobi kernel reads src at -1/0/+1 and writes dst at 0. src and
	// dst are ping-pong aliases of the registered A and B, swapped every
	// cycle, so the accesses keep the alias names: tracking which array an
	// alias holds needs dataflow, and the program's own AddAccess calls, in
	// a loop over the names, are not literal declarations either.
	found := map[string]bool{}
	for _, a := range res.Accesses {
		found[a.Array+plus(a.Off)] = true
	}
	for _, want := range []string{"src-1", "src+0", "src+1", "dst+0"} {
		if !found[want] {
			t.Fatalf("jacobi analysis missing %s; got %v", want, res.Accesses)
		}
	}
	// SOR's range sweep holds its partitioned loop itself (it used to sit
	// behind a two-argument per-row closure the analysis does not follow),
	// and its accesses take the registered name U of the variable u.
	res, err = AnalyzeFile("../apps/sor/sor.go", nil)
	if err != nil {
		t.Fatal(err)
	}
	found = map[string]bool{}
	for _, a := range res.Accesses {
		found[a.Array+plus(a.Off)] = true
	}
	for _, want := range []string{"U-1", "U+0", "U+1"} {
		if !found[want] {
			t.Fatalf("sor analysis missing %s; got %v", want, res.Accesses)
		}
	}
	if m := res.Missing(); len(m) != 0 {
		t.Fatalf("sor's declarations miss %v", m)
	}
}

// overlapSrc is the overlapped-halo idiom: the stencil lives in a
// row-kernel closure, boundary rows are computed outside any partitioned
// loop, and the interior loop runs over offset bounds (lo+1, hi-1) calling
// the kernel with a shifted index.
const overlapSrc = `package main

func kernel(a, b *Dense, ph *Phase, n int) {
	computeRow := func(g int) {
		up, mid, down := b.Row(g-1), b.Row(g), b.Row(g+1)
		copy(a.Row(g), mid)
		_ = up
		_ = down
	}
	for t := 0; t < 100; t++ {
		lo, hi := ph.Bounds()
		computeRow(lo)
		computeRow(hi - 1)
		for g := lo + 1; g < hi-1; g++ {
			computeRow(g + 1)
		}
	}
}
`

// TestDeriveKernelClosureAccesses pins the analyzer's closure-following:
// accesses inside a row-kernel closure are derived with offsets shifted by
// the call argument (here +1), offset loop bounds are recognised, and the
// copy through the kernel body still marks the write.
func TestDeriveKernelClosureAccesses(t *testing.T) {
	res, err := AnalyzeFile("overlap.go", overlapSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Issues) != 0 {
		t.Fatalf("issues: %v", res.Issues)
	}
	want := map[string]bool{ // "array off" -> write
		"a +1": true,  // copy(a.Row(g), …) shifted by the g+1 call
		"b +0": false, // b.Row(g-1) shifted by +1
		"b +1": false,
		"b +2": false,
	}
	if len(res.Accesses) != len(want) {
		t.Fatalf("derived %v, want %d accesses", res.Accesses, len(want))
	}
	for _, a := range res.Accesses {
		key := a.Array + " " + plus(a.Off)
		w, ok := want[key]
		if !ok {
			t.Fatalf("unexpected access %v", a)
		}
		if a.Write != w {
			t.Fatalf("access %v write=%v, want %v", a, a.Write, w)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/programs.golden")

// programs are the repository's programs written against the runtime, as
// paths from the repository root.
var programs = []string{
	"internal/apps/jacobi/jacobi.go",
	"internal/apps/sor/sor.go",
	"internal/apps/cg/cg.go",
	"internal/apps/particles/particles.go",
	"examples/multiperiod/main.go",
	"examples/noderemoval/main.go",
	"examples/quickstart/main.go",
	"examples/rejoin/main.go",
	"examples/unbalanced/main.go",
}

// outside names the programs whose declarations the analysis cannot match,
// and why.
var outside = map[string]string{
	"internal/apps/jacobi/jacobi.go": "its kernel indexes the ping-pong aliases src and dst " +
		"(src, dst := b, a), and it declares its accesses in a loop over the array names",
}

// TestProgramsGolden pins the analysis of every program in the repository:
// its derived accesses, the ones its declarations do not cover and the
// references it could not resolve, in testdata/programs.golden. Run with
// -update to rewrite the file after an intended change. Every program but
// those in outside declares all it accesses (drsdgen -check passes).
func TestProgramsGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range programs {
		res, err := AnalyzeFile(filepath.Join("..", "..", p), nil)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s:\n", p)
		if why, ok := outside[p]; ok {
			fmt.Fprintf(&b, "  outside the analysis: %s\n", why)
		} else if m := res.Missing(); len(m) > 0 || len(res.Issues) > 0 {
			t.Errorf("%s: missing %v, unresolved %v", p, m, res.Issues)
		}
		for _, a := range res.Accesses {
			fmt.Fprintf(&b, "  access %s\n", a)
		}
		for _, a := range res.Missing() {
			fmt.Fprintf(&b, "  missing %s\n", a)
		}
		for _, is := range res.Issues {
			fmt.Fprintf(&b, "  unresolved %d:%d: %s\n", is.Pos.Line, is.Pos.Column, is.Reason)
		}
	}
	golden := filepath.Join("testdata", "programs.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("%s differs:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}

const registeredSrc = `package main

func run(p *P, n int) {
	x := p.DMPI_register_dense_array("X", n, 8)
	p.DMPI_add_array_access("X", DMPI_READWRITE, 1, 0)
	p.DMPI_add_array_access("X", DMPI_READ, 1, +1)
	lo, hi := p.Bounds()
	for i := lo; i < hi; i++ {
		x.Row(i)[0] = x.Row(i + 1)[0]
	}
}
`

// TestRegisteredNames: an access takes the name its array was registered
// under, not the Go variable holding it, and a declared offset may carry an
// explicit plus sign, so the program's declarations cover its accesses.
func TestRegisteredNames(t *testing.T) {
	res, err := AnalyzeFile("r.go", registeredSrc)
	if err != nil {
		t.Fatal(err)
	}
	want := []Access{{Array: "X", Write: true, Step: 1, Off: 0}, {Array: "X", Step: 1, Off: 1}}
	if !slices.Equal(res.Accesses, want) || !slices.Equal(res.Declared, want) {
		t.Fatalf("accesses %v, declared %v, want both %v", res.Accesses, res.Declared, want)
	}
	if m := res.Missing(); len(m) != 0 {
		t.Fatalf("missing %v", m)
	}
}
