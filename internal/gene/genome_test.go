package gene

import (
	"testing"
	"testing/quick"
)

// smallGenome builds a 2-input / 1-output genome with one hidden node.
func smallGenome(t testing.TB) *Genome {
	t.Helper()
	g := NewGenome(1)
	g.PutNode(NewNode(0, Input))
	g.PutNode(NewNode(1, Input))
	g.PutNode(NewNode(2, Output))
	g.PutNode(NewNode(5, Hidden))
	g.PutConn(NewConn(0, 5, 0.5))
	g.PutConn(NewConn(1, 5, -0.5))
	g.PutConn(NewConn(5, 2, 1.0))
	g.PutConn(NewConn(0, 2, 0.25))
	if err := g.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return g
}

func TestPutNodeKeepsSorted(t *testing.T) {
	g := NewGenome(1)
	for _, id := range []int32{5, 1, 9, 3, 7} {
		g.PutNode(NewNode(id, Hidden))
	}
	for i := 1; i < len(g.Nodes); i++ {
		if g.Nodes[i-1].NodeID >= g.Nodes[i].NodeID {
			t.Fatalf("node cluster unsorted: %v", g.Nodes)
		}
	}
}

func TestPutNodeReplaces(t *testing.T) {
	g := NewGenome(1)
	g.PutNode(NewNode(3, Hidden))
	n := NewNode(3, Hidden)
	n.Bias = 2.5
	g.PutNode(n)
	if len(g.Nodes) != 1 {
		t.Fatalf("replace duplicated node: %d entries", len(g.Nodes))
	}
	got, _ := g.Node(3)
	if got.Bias != 2.5 {
		t.Fatalf("replace did not update: %v", got)
	}
}

func TestPutConnKeepsSorted(t *testing.T) {
	g := NewGenome(1)
	for _, p := range [][2]int32{{2, 1}, {0, 3}, {1, 1}, {0, 1}, {2, 0}} {
		g.PutNode(NewNode(p[0], Hidden))
		g.PutNode(NewNode(p[1], Hidden))
		g.PutConn(NewConn(p[0], p[1], 0))
	}
	for i := 1; i < len(g.Conns); i++ {
		p, c := g.Conns[i-1], g.Conns[i]
		if p.Src > c.Src || (p.Src == c.Src && p.Dst >= c.Dst) {
			t.Fatalf("conn cluster unsorted: %v", g.Conns)
		}
	}
}

func TestDeleteNodePrunesDanglingConns(t *testing.T) {
	g := smallGenome(t)
	if !g.DeleteNode(5) {
		t.Fatal("DeleteNode(5) reported missing")
	}
	if g.HasNode(5) {
		t.Fatal("node 5 still present")
	}
	for _, c := range g.Conns {
		if c.Src == 5 || c.Dst == 5 {
			t.Fatalf("dangling connection survived: %v", c)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("post-delete genome invalid: %v", err)
	}
	if len(g.Conns) != 1 {
		t.Fatalf("expected only 0->2 to survive, have %v", g.Conns)
	}
}

func TestDeleteConn(t *testing.T) {
	g := smallGenome(t)
	if !g.DeleteConn(0, 2) {
		t.Fatal("DeleteConn(0,2) reported missing")
	}
	if g.HasConn(0, 2) {
		t.Fatal("conn 0->2 still present")
	}
	if g.DeleteConn(0, 2) {
		t.Fatal("double delete reported success")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := smallGenome(t)
	c := g.Clone()
	c.Nodes[0].Bias = 99
	c.DeleteConn(0, 2)
	if g.Nodes[0].Bias == 99 {
		t.Fatal("clone shares node storage")
	}
	if !g.HasConn(0, 2) {
		t.Fatal("clone shares conn storage")
	}
}

func TestGenomePackRoundTrip(t *testing.T) {
	g := smallGenome(t)
	words := g.Pack()
	if len(words) != g.NumGenes() {
		t.Fatalf("Pack produced %d words for %d genes", len(words), g.NumGenes())
	}
	back := FromWords(g.ID, words)
	if back.NumGenes() != g.NumGenes() {
		t.Fatalf("round trip lost genes: %d vs %d", back.NumGenes(), g.NumGenes())
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped genome invalid: %v", err)
	}
	for i, n := range back.Nodes {
		if n.NodeID != g.Nodes[i].NodeID || n.Type != g.Nodes[i].Type {
			t.Fatalf("node %d mangled: %v vs %v", i, n, g.Nodes[i])
		}
	}
}

func TestSizeBytes(t *testing.T) {
	g := smallGenome(t)
	if g.SizeBytes() != 8*g.NumGenes() {
		t.Fatalf("SizeBytes = %d for %d genes", g.SizeBytes(), g.NumGenes())
	}
}

func TestTypedIDs(t *testing.T) {
	g := smallGenome(t)
	in, out, hid := g.InputIDs(), g.OutputIDs(), g.HiddenIDs()
	if len(in) != 2 || in[0] != 0 || in[1] != 1 {
		t.Fatalf("InputIDs = %v", in)
	}
	if len(out) != 1 || out[0] != 2 {
		t.Fatalf("OutputIDs = %v", out)
	}
	if len(hid) != 1 || hid[0] != 5 {
		t.Fatalf("HiddenIDs = %v", hid)
	}
}

func TestValidateCatchesDangling(t *testing.T) {
	g := smallGenome(t)
	// Bypass DeleteNode's pruning to forge a dangling connection.
	g.Nodes = append(g.Nodes[:3], g.Nodes[4:]...) // drop node 5 directly
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted dangling connections")
	}
}

func TestValidateCatchesInputDst(t *testing.T) {
	g := smallGenome(t)
	g.PutConn(NewConn(2, 0, 1)) // output -> input is illegal
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted connection into input node")
	}
}

func TestMaxNodeIDIn(t *testing.T) {
	g := NewGenome(1)
	if g.MaxNodeIDIn() != -1 {
		t.Fatal("empty genome max id should be -1")
	}
	g.PutNode(NewNode(7, Hidden))
	g.PutNode(NewNode(3, Hidden))
	if g.MaxNodeIDIn() != 7 {
		t.Fatalf("MaxNodeIDIn = %d", g.MaxNodeIDIn())
	}
}

func TestEnabledConns(t *testing.T) {
	g := smallGenome(t)
	c, _ := g.Conn(0, 2)
	c.Enabled = false
	g.PutConn(c)
	en := g.EnabledConns()
	if len(en) != 3 {
		t.Fatalf("EnabledConns = %d, want 3", len(en))
	}
	for _, e := range en {
		if !e.Enabled {
			t.Fatalf("disabled conn in EnabledConns: %v", e)
		}
	}
}

// Property: inserting arbitrary node ids keeps the cluster sorted and
// deduplicated, and DeleteNode leaves a valid genome.
func TestQuickGenomeInvariants(t *testing.T) {
	f := func(ids []uint16, del uint16) bool {
		g := NewGenome(0)
		g.PutNode(NewNode(0, Input))
		g.PutNode(NewNode(1, Output))
		for _, raw := range ids {
			id := int32(raw%500) + 2
			g.PutNode(NewNode(id, Hidden))
			g.PutConn(NewConn(0, id, 1))
			g.PutConn(NewConn(id, 1, 1))
		}
		if err := g.Validate(); err != nil {
			return false
		}
		g.DeleteNode(int32(del%500) + 2)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
