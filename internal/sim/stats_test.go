package sim

import (
	"testing"
	"testing/quick"

	"listcolor/internal/graph"
)

func TestSeq(t *testing.T) {
	a := Result{Rounds: 3, Messages: 10, TotalBits: 100, MaxMessageBits: 12}
	b := Result{Rounds: 2, Messages: 5, TotalBits: 40, MaxMessageBits: 20}
	got := Seq(a, b)
	want := Result{Rounds: 5, Messages: 15, TotalBits: 140, MaxMessageBits: 20}
	if got != want {
		t.Errorf("Seq = %+v, want %+v", got, want)
	}
}

func TestPar(t *testing.T) {
	a := Result{Rounds: 3, Messages: 10, TotalBits: 100, MaxMessageBits: 12}
	b := Result{Rounds: 7, Messages: 5, TotalBits: 40, MaxMessageBits: 6}
	got := Par(a, b)
	want := Result{Rounds: 7, Messages: 15, TotalBits: 140, MaxMessageBits: 12}
	if got != want {
		t.Errorf("Par = %+v, want %+v", got, want)
	}
}

func TestSeqParAlgebraQuick(t *testing.T) {
	// Both composers are commutative in everything except Seq's round
	// sum (which is also commutative); identity is the zero Result;
	// Par rounds ≤ Seq rounds always.
	f := func(r1, m1, b1, x1, r2, m2, b2, x2 uint8) bool {
		a := Result{Rounds: int(r1), Messages: int(m1), TotalBits: int(b1), MaxMessageBits: int(x1)}
		b := Result{Rounds: int(r2), Messages: int(m2), TotalBits: int(b2), MaxMessageBits: int(x2)}
		if Seq(a, b) != Seq(b, a) || Par(a, b) != Par(b, a) {
			return false
		}
		if Seq(a, Result{}) != a || Par(a, Result{}) != a {
			return false
		}
		return Par(a, b).Rounds <= Seq(a, b).Rounds
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNetworkAccessors(t *testing.T) {
	g := graph.Ring(5)
	nw := NewNetwork(g)
	if nw.N() != 5 || nw.CSR().Fingerprint() != g.Fingerprint() || nw.Oriented() != nil {
		t.Error("unoriented network accessors wrong")
	}
	d := graph.OrientByID(g)
	onw := NewOrientedNetwork(d)
	if onw.Oriented() != d.Oriented || onw.CSR() != d.CSR {
		t.Error("oriented network accessors wrong: a Digraph's network must share its CSR form")
	}
}

func TestContextContents(t *testing.T) {
	g := graph.Path(3)
	d := graph.OrientByID(g)
	nw := NewOrientedNetwork(d)
	ctx := new(Engine).contexts(nw)[1]
	if ctx.ID != 1 {
		t.Errorf("ID = %d", ctx.ID)
	}
	if len(ctx.Neighbors) != 2 {
		t.Errorf("Neighbors = %v", ctx.Neighbors)
	}
	if len(ctx.Out) != 1 || ctx.Out[0] != 0 {
		t.Errorf("Out = %v", ctx.Out)
	}
	if len(ctx.In) != 1 || ctx.In[0] != 2 {
		t.Errorf("In = %v", ctx.In)
	}
}

func TestZeroNodeNetwork(t *testing.T) {
	g := graph.New(0)
	res, err := Run(NewNetwork(g), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || res.Messages != 0 {
		t.Errorf("empty run produced %+v", res)
	}
}

func TestUnknownDriverRejected(t *testing.T) {
	g := graph.Ring(3)
	nodes := []Node{forever{}, forever{}, forever{}}
	if _, err := Run(NewNetwork(g), nodes, Config{Driver: Driver(99)}); err == nil {
		t.Error("unknown driver accepted")
	}
}

func TestNilPayloadCountsZeroBits(t *testing.T) {
	// A node may send a nil payload (pure signal); it costs 0 bits but
	// 1 message.
	n := 2
	g := graph.Path(n)
	done := make([]bool, n)
	nodes := []Node{
		&signalNode{done: &done[0]},
		&signalNode{done: &done[1]},
	}
	res, err := Run(NewNetwork(g), nodes, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 2 || res.TotalBits != 0 {
		t.Errorf("nil payloads: %+v", res)
	}
}

type signalNode struct{ done *bool }

func (s *signalNode) Init(ctx *Context) []Outgoing {
	return []Outgoing{{To: Broadcast, Payload: nil}}
}

func (s *signalNode) Round(ctx *Context, round int, inbox []Message) ([]Outgoing, bool) {
	*s.done = len(inbox) > 0
	return nil, true
}
