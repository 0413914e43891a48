package gene

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// codecFixtures covers the encoder's branches: every node type,
// activation and aggregation, disabled connections, empty clusters
// (written as null), and floats on both sides of encoding/json's
// exponent-form cutoffs.
func codecFixtures(t testing.TB) []*Genome {
	t.Helper()
	var out []*Genome
	out = append(out, smallGenome(t), NewGenome(0), NewGenome(-3))

	g := smallGenome(t)
	g.ID = math.MaxInt64
	g.Fitness = -1e21
	floats := []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e20, 1e21, 123456789e13,
		-2.5e-300, 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, 0.1, 1.0 / 3}
	var hidden int32 = 10
	for i, f := range floats {
		n := NewNode(hidden+int32(i), Hidden)
		n.Bias = f
		n.Response = -f
		n.Activation = Activation(i % NumActivations)
		n.Aggregation = Aggregation(i % NumAggregations)
		g.PutNode(n)
		c := NewConn(0, n.NodeID, f)
		c.Enabled = i%2 == 0
		g.PutConn(c)
	}
	out = append(out, g)

	nodesOnly := NewGenome(4)
	nodesOnly.PutNode(NewNode(0, Input))
	nodesOnly.PutNode(NewNode(1, Output))
	nodesOnly.Fitness = 2.5e-8
	out = append(out, nodesOnly)
	return out
}

// TestCodecMatchesReference: AppendJSON writes the reflective
// encoder's bytes, ReadJSON returns the reflective decoder's genome,
// and indented Save output decodes too.
func TestCodecMatchesReference(t *testing.T) {
	for _, g := range codecFixtures(t) {
		want, err := ReferenceMarshal(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("genome %d encodes differently:\n got %s\nwant %s", g.ID, got, want)
		}
		viaMarshal, err := json.Marshal(g)
		if err != nil || !bytes.Equal(viaMarshal, want) {
			t.Fatalf("genome %d: json.Marshal differs (%v):\n got %s\nwant %s", g.ID, err, viaMarshal, want)
		}
		ref, err := ReferenceUnmarshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var back Genome
		if err := back.UnmarshalJSON(want); err != nil {
			t.Fatalf("genome %d: %v", g.ID, err)
		}
		if !SameGenome(&back, ref) || !SameGenome(&back, g) {
			t.Fatalf("genome %d decodes differently", g.ID)
		}
		var indented bytes.Buffer
		if err := g.Save(&indented); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&indented)
		if err != nil || !SameGenome(loaded, g) {
			t.Fatalf("genome %d: indented Save does not load back (%v)", g.ID, err)
		}
	}
}

func TestAppendJSONRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		g := smallGenome(t)
		g.Fitness = f
		if _, err := g.AppendJSON(nil); err == nil {
			t.Errorf("fitness %v encoded", f)
		}
		if _, err := ReferenceMarshal(g); err == nil {
			t.Errorf("reference encoded fitness %v", f)
		}
	}
}

// TestCodecMultiGenome: a JSON array of genomes (the island-migrant
// and Pareto-document shape) round-trips through the codec exactly as
// through the reference.
func TestCodecMultiGenome(t *testing.T) {
	a := smallGenome(t)
	b := a.Clone()
	b.ID = 2
	b.Fitness = 7
	genomes := []*Genome{a, b}
	doc, err := json.Marshal(genomes)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal([]jsonGenome{toJSONGenome(a), toJSONGenome(b)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, want) {
		t.Fatalf("population document differs:\n got %s\nwant %s", doc, want)
	}
	var back []*Genome
	if err := json.Unmarshal(doc, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || !SameGenome(back[0], a) || !SameGenome(back[1], b) {
		t.Fatalf("population round trip wrong: %v", back)
	}
}

// TestReadJSONOutOfOrderGenes: genes out of cluster order, or repeated,
// land where PutNode/PutConn put them, as in the reference.
func TestReadJSONOutOfOrderGenes(t *testing.T) {
	doc := `{"id":1,"fitness":0,"nodes":[` +
		`{"id":2,"type":"output","bias":0,"response":1,"activation":"sigmoid","aggregation":"sum"},` +
		`{"id":0,"type":"input","bias":0,"response":1,"activation":"sigmoid","aggregation":"sum"},` +
		`{"id":2,"type":"output","bias":3,"response":1,"activation":"tanh","aggregation":"max"}],` +
		`"conns":[{"src":0,"dst":2,"weight":1,"enabled":true},{"src":0,"dst":2,"weight":2,"enabled":false}]}`
	ref, err := ReferenceUnmarshal([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	var got Genome
	if err := got.UnmarshalJSON([]byte(doc)); err != nil {
		t.Fatal(err)
	}
	if !SameGenome(&got, ref) {
		t.Fatalf("decoded %v, reference %v", got.Nodes, ref.Nodes)
	}
	if n, _ := got.Node(2); n.Bias != 3 || n.Activation != ActTanh {
		t.Fatalf("repeated node did not replace: %v", n)
	}
}

// TestReadJSONStampsVersionOnce: a decoded genome gets one fresh
// phenotype stamp, not one per gene.
func TestReadJSONStampsVersionOnce(t *testing.T) {
	doc, _ := smallGenome(t).AppendJSON(nil)
	before := NewGenome(0).Version()
	var g Genome
	if err := g.UnmarshalJSON(doc); err != nil {
		t.Fatal(err)
	}
	if after := NewGenome(0).Version(); after-before != 2 {
		t.Fatalf("decode consumed %d version stamps, want 1", after-before-1)
	}
}

// FuzzGenomeCodec pins the single-pass genome codec to the reflective
// reference: whatever it accepts the reference accepts with an equal
// genome, and whatever the reference accepts, once re-encoded (compact
// or indented), it accepts too — with the reference's exact bytes.
func FuzzGenomeCodec(f *testing.F) {
	for _, g := range codecFixtures(f) {
		doc, _ := g.AppendJSON(nil)
		f.Add(doc)
	}
	var indented bytes.Buffer
	NewGenome(9).Save(&indented)
	f.Add(indented.Bytes())
	for _, doc := range []string{
		`{`, `null`, `{}`, `{"id":1,"nodes":null,"conns":[]}`,
		`{"id":1,"nodes":[{"id":0,"type":"ghost"}]}`,
		`{"id":1,"nodes":[{"id":0,"type":"input","activation":"sigmoid","aggregation":"sum"}],"conns":[{"src":0,"dst":9,"weight":1,"enabled":true}]}`,
		`{"id":1e2}`, `{"ID":1,"fitness":-0}`, `{"id":1,"id":2,"unknown":[1,{"a":"\""}]}`,
		`{"id":1,"fitness":1e400}`, `{"id":1} x`, `{"nodes":[{"id":2147483648}]}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := ReferenceUnmarshal(data)
		var got Genome
		if err := got.UnmarshalJSON(data); err == nil {
			if refErr != nil {
				t.Fatalf("accepted a document the reference rejects (%v): %q", refErr, data)
			}
			if !SameGenome(&got, ref) {
				t.Fatalf("decoded genome differs from the reference's: %q", data)
			}
		}
		if refErr != nil {
			return
		}
		want, err := ReferenceMarshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := ref.AppendJSON(nil)
		if err != nil || !bytes.Equal(enc, want) {
			t.Fatalf("encoding differs from the reference's (%v):\n got %s\nwant %s", err, enc, want)
		}
		var back Genome
		if err := back.UnmarshalJSON(enc); err != nil || !SameGenome(&back, ref) {
			t.Fatalf("re-encoded document not decoded back (%v): %s", err, enc)
		}
		var buf bytes.Buffer
		if err := ref.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if loaded, err := Load(strings.NewReader(buf.String())); err != nil || !SameGenome(loaded, ref) {
			t.Fatalf("indented document not loaded back (%v): %s", err, buf.String())
		}
	})
}

// TestReadJSONConcurrent: decoders on several goroutines share the
// pooled cluster buffers without mixing their genes.
func TestReadJSONConcurrent(t *testing.T) {
	fixtures := codecFixtures(t)
	docs := make([][]byte, len(fixtures))
	for i, g := range fixtures {
		docs[i], _ = g.AppendJSON(nil)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (w + i) % len(docs)
				var g Genome
				if err := g.UnmarshalJSON(docs[k]); err != nil || !SameGenome(&g, fixtures[k]) {
					t.Errorf("goroutine %d: document %d decoded wrong (%v)", w, k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
