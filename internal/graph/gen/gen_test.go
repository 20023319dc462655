package gen

import (
	"testing"

	"repro/internal/graph"
)

func TestGNMBasic(t *testing.T) {
	g := GNM(100, 300, 1)
	if g.N() != 100 {
		t.Fatalf("n = %d", g.N())
	}
	if g.M() != 300 {
		t.Errorf("m = %d, want 300", g.M())
	}
}

func TestGNMClampsToCompleteGraph(t *testing.T) {
	g := GNM(5, 100, 1)
	if g.M() != 10 {
		t.Errorf("m = %d, want 10 (K5)", g.M())
	}
}

func TestGNMDeterministic(t *testing.T) {
	a, b := GNM(64, 128, 7), GNM(64, 128, 7)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("edge counts differ")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
	c := GNM(64, 128, 8)
	same := c.M() == a.M()
	if same {
		diff := false
		ec := c.Edges()
		for i := range ea {
			if ea[i] != ec[i] {
				diff = true
				break
			}
		}
		if !diff {
			t.Error("different seeds produced identical graphs")
		}
	}
}

func TestGNPDensity(t *testing.T) {
	n, p := 400, 0.05
	g := GNP(n, p, 3)
	expect := p * float64(n*(n-1)/2)
	if g.M() < int(expect*0.8) || g.M() > int(expect*1.2) {
		t.Errorf("GNP m = %d, expected about %.0f", g.M(), expect)
	}
}

func TestGNPExtremes(t *testing.T) {
	if g := GNP(10, 0, 1); g.M() != 0 {
		t.Error("GNP(p=0) has edges")
	}
	if g := GNP(10, 1, 1); g.M() != 45 {
		t.Errorf("GNP(p=1).M = %d, want 45", g.M())
	}
}

func TestPowerLawShape(t *testing.T) {
	g := PowerLaw(2000, 6000, 2.5, 11)
	if g.N() != 2000 {
		t.Fatalf("n = %d", g.N())
	}
	if g.M() < 4000 {
		t.Errorf("m = %d, want close to 6000", g.M())
	}
	// Degree skew: max degree should far exceed average degree.
	avg := 2 * g.M() / g.N()
	if g.MaxDegree() < 4*avg {
		t.Errorf("power law not skewed: Δ=%d avg=%d", g.MaxDegree(), avg)
	}
}

func TestRandomRegularDegrees(t *testing.T) {
	d := 8
	g := RandomRegular(500, d, 5)
	over := 0
	sum := 0
	for v := 0; v < g.N(); v++ {
		dv := g.Degree(int32(v))
		sum += dv
		if dv > d+1 {
			over++
		}
	}
	if over > 0 {
		t.Errorf("%d nodes exceed target degree", over)
	}
	if avg := float64(sum) / float64(g.N()); avg < float64(d)*0.85 {
		t.Errorf("average degree %.2f too low for target %d", avg, d)
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(4, 5)
	if g.N() != 20 {
		t.Fatalf("n = %d", g.N())
	}
	wantM := 4*4 + 3*5 // horizontal + vertical
	if g.M() != wantM {
		t.Errorf("m = %d, want %d", g.M(), wantM)
	}
	if g.MaxDegree() != 4 {
		t.Errorf("Δ = %d, want 4", g.MaxDegree())
	}
}

func TestCompleteAndBipartite(t *testing.T) {
	if g := Complete(7); g.M() != 21 || g.MaxDegree() != 6 {
		t.Errorf("K7 wrong: m=%d Δ=%d", g.M(), g.MaxDegree())
	}
	if g := CompleteBipartite(3, 4); g.M() != 12 || g.MaxDegree() != 4 {
		t.Errorf("K(3,4) wrong: m=%d Δ=%d", g.M(), g.MaxDegree())
	}
}

func TestStarPathCycle(t *testing.T) {
	if g := Star(10); g.M() != 9 || g.Degree(0) != 9 {
		t.Error("Star wrong")
	}
	if g := Path(10); g.M() != 9 || g.MaxDegree() != 2 {
		t.Error("Path wrong")
	}
	if g := Cycle(10); g.M() != 10 || g.MaxDegree() != 2 {
		t.Error("Cycle wrong")
	}
	if g := Cycle(2); g.M() != 1 {
		t.Errorf("Cycle(2).M = %d, want 1", g.M())
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	g := RandomTree(200, 9)
	if g.M() != 199 {
		t.Fatalf("tree edge count %d", g.M())
	}
	if reached := len(g.Ball(0, g.N())); reached != g.N() {
		t.Errorf("tree reaches %d of %d nodes from node 0", reached, g.N())
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(5, 3)
	if g.N() != 20 {
		t.Fatalf("n = %d", g.N())
	}
	if g.M() != 4+15 {
		t.Errorf("m = %d, want 19", g.M())
	}
}

func TestByNameAllFamilies(t *testing.T) {
	for _, name := range Names() {
		g, err := ByName(name, 64, 4, 1)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if g.N() == 0 {
			t.Errorf("ByName(%q): empty graph", name)
		}
		var _ *graph.Graph = g
	}
	if _, err := ByName("nope", 10, 2, 1); err == nil {
		t.Error("unknown family did not error")
	}
}

// Names lists the families ByName accepts.
func Names() []string {
	return []string{"gnm", "gnp", "powerlaw", "regular", "grid", "complete",
		"star", "path", "cycle", "tree", "caterpillar", "bipartite"}
}
