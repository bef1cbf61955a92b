package exp

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sweep"
)

// TestPaperInputsAreThePapers checks the worlds every paper study builds at
// Paper against the paper's §5 (DESIGN.md's experiment index): Jacobi/SOR
// at 2048², CG at n = 14000, particles at 256² for 200 steps, Fig. 5 at
// 2048² with periods of 50 and 500 cycles, Fig. 6 SOR at 1024² for 200
// cycles on 8/16/32 nodes with 1–3 CPs, and Fig. 7 on 8 nodes with Part 10
// and 50. It builds the worlds without running them.
func TestPaperInputsAreThePapers(t *testing.T) {
	grid := func(w sweep.World) string { return fmt.Sprintf("%s %dx%d", w.App, w.Rows, w.Cols) }
	for _, w := range fig4Worlds(nil, Paper) {
		switch w.App {
		case "jacobi", "sor":
			if w.Rows != 2048 || w.Cols != 2048 {
				t.Errorf("fig4: %s, want 2048x2048", grid(w))
			}
		case "cg":
			if w.N != 14000 {
				t.Errorf("fig4: cg n=%d, want 14000", w.N)
			}
		case "particles":
			if w.Rows != 256 || w.Cols != 256 || w.Iters != 200 {
				t.Errorf("fig4: %s for %d steps, want 256x256 for 200", grid(w), w.Iters)
			}
		}
	}
	for _, w := range cgTableWorlds(Paper) {
		if w.N != 14000 || len(w.Spec.Nodes) != 4 {
			t.Errorf("cg-table: n=%d on %d nodes, want 14000 on 4", w.N, len(w.Spec.Nodes))
		}
	}

	var periods []int
	for _, w := range fig5Worlds(Paper) {
		p := w.Iters / 3
		periods = append(periods, p)
		if w.Rows != 2048 || w.Cols != 2048 || w.Iters != 3*p {
			t.Errorf("fig5: %s for %d cycles, want 2048x2048 for three periods", grid(w), w.Iters)
		}
		if ev := w.Spec.Events; len(ev) != 2 || ev[0].AtCycle != p || ev[1].AtCycle != 2*p {
			t.Errorf("fig5: CP events %+v, want on at cycle %d and off at %d", ev, p, 2*p)
		}
	}
	if want := []int{50, 50, 50, 500, 500, 500}; !slices.Equal(periods, want) {
		t.Errorf("fig5: periods %v, want %v", periods, want)
	}

	var cells []string
	for _, w := range fig6Worlds(nil, Paper) {
		if w.App != "sor" || w.Rows != 1024 || w.Cols != 1024 || w.Iters != 200 {
			t.Errorf("fig6: %s for %d cycles, want sor 1024x1024 for 200", grid(w), w.Iters)
		}
		cells = append(cells, fmt.Sprintf("%d/%d", len(w.Spec.Nodes), len(w.Spec.Events)))
	}
	var want []string
	for _, n := range []int{8, 16, 32} {
		for cps := 1; cps <= 3; cps++ {
			want = append(want, fmt.Sprintf("%d/%d", n, cps), fmt.Sprintf("%d/%d", n, cps))
		}
	}
	if !slices.Equal(cells, want) {
		t.Errorf("fig6: nodes/CPs %v, want %v", cells, want)
	}

	var parts []int
	for _, w := range fig7Worlds(Paper) {
		if w.App != "particles" || w.Rows != 256 || w.Cols != 256 || w.Iters != 200 || len(w.Spec.Nodes) != 8 {
			t.Errorf("fig7: %s for %d steps on %d nodes, want particles 256x256 for 200 on 8", grid(w), w.Iters, len(w.Spec.Nodes))
		}
		parts = append(parts, w.ExtraTopP0)
	}
	if want := []int{10, 10, 50, 50}; !slices.Equal(parts, want) {
		t.Errorf("fig7: Part %v, want %v", parts, want)
	}
}
