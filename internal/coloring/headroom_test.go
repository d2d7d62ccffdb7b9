package coloring

import (
	"testing"

	"listcolor/internal/graph"
)

// pathInstance builds the 3-path 0-1-2 with every node holding list
// {0,1} and uniform defect def.
func pathInstance(def int) (*graph.Graph, *Instance) {
	g := graph.Path(3)
	in := &Instance{Space: 2}
	for v := 0; v < 3; v++ {
		in.Lists = append(in.Lists, []int{0, 1})
		in.Defects = append(in.Defects, []int{def, def})
	}
	return g, in
}

func TestOLDCHeadroom(t *testing.T) {
	g, in := pathInstance(1)
	d := graph.OrientByID(g)
	// Edges point toward the smaller id, so nodes 1 and 2 each have
	// one conflicting out-neighbor under an all-same coloring, budget
	// 1 ⇒ remaining 0; node 0 has outdeg 0 ⇒ 1.
	h, err := OLDCHeadroom(d, in, []int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if h.Min != 0 || h.Tight != 2 {
		t.Errorf("monochromatic path: %+v, want Min 0, Tight 2", h)
	}
	// Proper coloring: full budget left everywhere.
	h, err = OLDCHeadroom(d, in, []int{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if h.Min != 1 || h.Tight != 0 {
		t.Errorf("proper path: %+v, want Min 1, Tight 0", h)
	}
}

func TestOLDCHeadroomNegativeOnViolation(t *testing.T) {
	g, in := pathInstance(0)
	d := graph.OrientByID(g)
	h, err := OLDCHeadroom(d, in, []int{1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if h.Min != -1 || h.MinAt != 1 {
		t.Errorf("violating coloring: %+v, want Min -1 at node 1 (its out-neighbor 0 shares color 1)", h)
	}
	if ValidateOLDC(d, in, []int{1, 1, 0}) == nil {
		t.Error("validator disagrees with negative headroom")
	}
}

func TestHeadroomRejectsOffListColor(t *testing.T) {
	g, in := pathInstance(1)
	if _, err := OLDCHeadroom(graph.OrientByID(g), in, []int{0, 2, 0}); err == nil {
		t.Error("accepted a color outside the list")
	}
}
