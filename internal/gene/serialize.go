package gene

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/jsonwire"
)

// JSON serialization of genomes — checkpointing for long evolutionary
// runs and interchange of evolved controllers. The format is explicit
// (no packed words) so checkpoints remain readable and diffable; the
// hardware word format (Pack/FromWords) remains the storage model for
// the chip. One genome is one object:
//
//	{"id":7,"fitness":1.5,
//	 "nodes":[{"id":0,"type":"input","bias":0,"response":1,"activation":"sigmoid","aggregation":"sum"},...],
//	 "conns":[{"src":0,"dst":3,"weight":-0.25,"enabled":true},...]}
//
// with an empty cluster written as null. AppendJSON and ReadJSON are the
// codec, one pass each way. The bytes are exactly what encoding/json
// writes for this schema; the tests keep a reflective encoding/json
// implementation as the differential reference.

// nodeTypeName is a node type's serialized name ("" for an undefined
// type, which no decoder accepts).
func nodeTypeName(t NodeType) string {
	switch t {
	case Hidden:
		return "hidden"
	case Input:
		return "input"
	case Output:
		return "output"
	}
	return ""
}

// undefined marks a node attribute the decoder has not (validly) read.
const undefined = 0xff

func nodeTypeByName(b []byte) NodeType {
	for t := Hidden; t <= Output; t++ {
		if string(b) == nodeTypeName(t) {
			return t
		}
	}
	return undefined
}

func activationByName(b []byte) Activation {
	for a := Activation(0); a < numActivations; a++ {
		if string(b) == a.String() {
			return a
		}
	}
	return undefined
}

func aggregationByName(b []byte) Aggregation {
	for a := Aggregation(0); a < numAggregations; a++ {
		if string(b) == a.String() {
			return a
		}
	}
	return undefined
}

// AppendJSON appends the genome's compact JSON encoding to dst. It fails
// only on a NaN or infinite attribute, which JSON cannot carry.
func (g *Genome) AppendJSON(dst []byte) ([]byte, error) {
	var err error
	float := func(f float64) {
		if err == nil {
			dst, err = jsonwire.AppendFloat(dst, f)
		}
	}
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, g.ID, 10)
	dst = append(dst, `,"fitness":`...)
	float(g.Fitness)
	dst = append(dst, `,"nodes":`...)
	if len(g.Nodes) == 0 {
		dst = append(dst, "null"...)
	}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if i == 0 {
			dst = append(dst, `[{"id":`...)
		} else {
			dst = append(dst, `,{"id":`...)
		}
		dst = strconv.AppendInt(dst, int64(n.NodeID), 10)
		dst = append(dst, `,"type":"`...)
		dst = append(dst, nodeTypeName(n.Type)...)
		dst = append(dst, `","bias":`...)
		float(n.Bias)
		dst = append(dst, `,"response":`...)
		float(n.Response)
		dst = append(dst, `,"activation":"`...)
		dst = append(dst, n.Activation.String()...)
		dst = append(dst, `","aggregation":"`...)
		dst = append(dst, n.Aggregation.String()...)
		dst = append(dst, `"}`...)
	}
	if len(g.Nodes) > 0 {
		dst = append(dst, ']')
	}
	dst = append(dst, `,"conns":`...)
	if len(g.Conns) == 0 {
		dst = append(dst, "null"...)
	}
	for i := range g.Conns {
		c := &g.Conns[i]
		if i == 0 {
			dst = append(dst, `[{"src":`...)
		} else {
			dst = append(dst, `,{"src":`...)
		}
		dst = strconv.AppendInt(dst, int64(c.Src), 10)
		dst = append(dst, `,"dst":`...)
		dst = strconv.AppendInt(dst, int64(c.Dst), 10)
		dst = append(dst, `,"weight":`...)
		float(c.Weight)
		dst = strconv.AppendBool(append(dst, `,"enabled":`...), c.Enabled)
		dst = append(dst, '}')
	}
	if len(g.Conns) > 0 {
		dst = append(dst, ']')
	}
	dst = append(dst, '}')
	if err != nil {
		return dst, fmt.Errorf("gene: genome %d: %w", g.ID, err)
	}
	return dst, nil
}

// ReadJSON decodes the genome object at the scanner's position and
// validates it; on failure it returns nil and leaves the error in s.
// The genome's phenotype version is stamped once, not per gene.
func ReadJSON(s *jsonwire.Scanner) *Genome {
	g := &Genome{}
	s.Object(func(key []byte) {
		switch string(key) {
		case "id":
			g.ID = s.Int(64)
		case "fitness":
			g.Fitness = s.Float()
		case "nodes":
			g.Nodes = readCluster(s, KindNode)
		case "conns":
			g.Conns = readCluster(s, KindConn)
		default:
			s.Failf("unknown genome field %q", key)
		}
	})
	if s.Err() != nil {
		return nil
	}
	if err := g.Validate(); err != nil {
		s.Fail(err)
		return nil
	}
	g.BumpVersion()
	return g
}

// clusterScratch recycles the buffers readCluster grows.
var clusterScratch = sync.Pool{New: func() any { return new([]Gene) }}

// readCluster decodes a node (kind KindNode) or connection gene array,
// or null. Genes arriving in cluster order, as AppendJSON writes them,
// are appended; others are inserted by key, and a repeated key replaces
// the earlier gene, as PutNode/PutConn do. The genes collect in a
// pooled scratch buffer and are copied out at their exact size:
// decoding leaves no growth garbage and no slack capacity behind.
func readCluster(s *jsonwire.Scanner, kind Kind) []Gene {
	if s.Null() {
		return nil
	}
	read := readConn
	if kind == KindNode {
		read = readNode
	}
	scratch := clusterScratch.Get().(*[]Gene)
	defer clusterScratch.Put(scratch)
	genes := (*scratch)[:0]
	s.Array(func() {
		g := read(s)
		k := g.Key()
		if l := len(genes); l == 0 || genes[l-1].Key().Less(k) {
			genes = append(genes, g)
			return
		}
		i := sort.Search(len(genes), func(i int) bool { return !genes[i].Key().Less(k) })
		if genes[i].Key() == k {
			genes[i] = g
		} else {
			genes = slices.Insert(genes, i, g)
		}
	})
	*scratch = genes
	if len(genes) == 0 || s.Err() != nil {
		return nil
	}
	return append([]Gene(nil), genes...)
}

// readNode decodes one node gene object.
func readNode(s *jsonwire.Scanner) Gene {
	n := Gene{Kind: KindNode, Type: undefined, Activation: undefined, Aggregation: undefined}
	s.Object(func(key []byte) {
		switch string(key) {
		case "id":
			n.NodeID = int32(s.Int(32))
		case "type":
			n.Type = nodeTypeByName(s.Str())
		case "bias":
			n.Bias = s.Float()
		case "response":
			n.Response = s.Float()
		case "activation":
			n.Activation = activationByName(s.Str())
		case "aggregation":
			n.Aggregation = aggregationByName(s.Str())
		default:
			s.Failf("unknown node field %q", key)
		}
	})
	switch {
	case s.Err() != nil:
	case n.Type == undefined:
		s.Failf("node %d: missing or unknown type", n.NodeID)
	case n.Activation == undefined:
		s.Failf("node %d: missing or unknown activation", n.NodeID)
	case n.Aggregation == undefined:
		s.Failf("node %d: missing or unknown aggregation", n.NodeID)
	}
	return n
}

// readConn decodes one connection gene object.
func readConn(s *jsonwire.Scanner) Gene {
	c := Gene{Kind: KindConn}
	s.Object(func(key []byte) {
		switch string(key) {
		case "src":
			c.Src = int32(s.Int(32))
		case "dst":
			c.Dst = int32(s.Int(32))
		case "weight":
			c.Weight = s.Float()
		case "enabled":
			c.Enabled = s.Bool()
		default:
			s.Failf("unknown conn field %q", key)
		}
	})
	return c
}

// MarshalJSON implements json.Marshaler.
func (g *Genome) MarshalJSON() ([]byte, error) { return g.AppendJSON(nil) }

// UnmarshalJSON implements json.Unmarshaler and validates the result.
func (g *Genome) UnmarshalJSON(data []byte) error {
	s := jsonwire.New(data)
	out := ReadJSON(s)
	s.End()
	if err := s.Err(); err != nil {
		return fmt.Errorf("gene: %w", err)
	}
	*g = *out
	return nil
}

// Save writes the genome as indented JSON.
func (g *Genome) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

// Load reads a genome from JSON.
func Load(r io.Reader) (*Genome, error) {
	g := &Genome{}
	if err := json.NewDecoder(r).Decode(g); err != nil {
		return nil, err
	}
	return g, nil
}
