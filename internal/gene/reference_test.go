package gene

import (
	"encoding/json"
	"fmt"
	"math"
)

// The reflective genome codec this package shipped before AppendJSON
// and ReadJSON: encoding/json over mirror structs. It stays here as the
// differential reference the single-pass codec is pinned to, byte for
// byte on encode and value for value on decode. It is exported so the
// external-package population tests can use it.

type jsonNode struct {
	ID          int32   `json:"id"`
	Type        string  `json:"type"`
	Bias        float64 `json:"bias"`
	Response    float64 `json:"response"`
	Activation  string  `json:"activation"`
	Aggregation string  `json:"aggregation"`
}

type jsonConn struct {
	Src     int32   `json:"src"`
	Dst     int32   `json:"dst"`
	Weight  float64 `json:"weight"`
	Enabled bool    `json:"enabled"`
}

type jsonGenome struct {
	ID      int64      `json:"id"`
	Fitness float64    `json:"fitness"`
	Nodes   []jsonNode `json:"nodes"`
	Conns   []jsonConn `json:"conns"`
}

var nodeTypeNames = map[NodeType]string{Hidden: "hidden", Input: "input", Output: "output"}

func nodeTypeFromName(s string) (NodeType, error) {
	for t, n := range nodeTypeNames {
		if n == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("gene: unknown node type %q", s)
}

func activationFromName(s string) (Activation, error) {
	for a := Activation(0); int(a) < NumActivations; a++ {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("gene: unknown activation %q", s)
}

func aggregationFromName(s string) (Aggregation, error) {
	for a := Aggregation(0); int(a) < NumAggregations; a++ {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("gene: unknown aggregation %q", s)
}

func toJSONGenome(g *Genome) jsonGenome {
	jg := jsonGenome{ID: g.ID, Fitness: g.Fitness}
	for _, n := range g.Nodes {
		jg.Nodes = append(jg.Nodes, jsonNode{
			ID: n.NodeID, Type: nodeTypeNames[n.Type],
			Bias: n.Bias, Response: n.Response,
			Activation: n.Activation.String(), Aggregation: n.Aggregation.String(),
		})
	}
	for _, c := range g.Conns {
		jg.Conns = append(jg.Conns, jsonConn{
			Src: c.Src, Dst: c.Dst, Weight: c.Weight, Enabled: c.Enabled,
		})
	}
	return jg
}

func fromJSONGenome(jg jsonGenome) (*Genome, error) {
	out := Genome{ID: jg.ID, Fitness: jg.Fitness}
	for _, n := range jg.Nodes {
		t, err := nodeTypeFromName(n.Type)
		if err != nil {
			return nil, err
		}
		act, err := activationFromName(n.Activation)
		if err != nil {
			return nil, err
		}
		agg, err := aggregationFromName(n.Aggregation)
		if err != nil {
			return nil, err
		}
		out.PutNode(Gene{
			Kind: KindNode, NodeID: n.ID, Type: t,
			Bias: n.Bias, Response: n.Response, Activation: act, Aggregation: agg,
		})
	}
	for _, c := range jg.Conns {
		out.PutConn(Gene{
			Kind: KindConn, Src: c.Src, Dst: c.Dst, Weight: c.Weight, Enabled: c.Enabled,
		})
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return &out, nil
}

// ReferenceMarshal is the reflective encoder (the former MarshalJSON).
func ReferenceMarshal(g *Genome) ([]byte, error) { return json.Marshal(toJSONGenome(g)) }

// ReferenceUnmarshal is the reflective decoder (the former
// UnmarshalJSON), validation included.
func ReferenceUnmarshal(data []byte) (*Genome, error) {
	var jg jsonGenome
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, fmt.Errorf("gene: %w", err)
	}
	return fromJSONGenome(jg)
}

// SameGenome reports whether two genomes carry the same identity,
// fitness and genes (bit-exact floats), ignoring the version stamp.
func SameGenome(a, b *Genome) bool {
	if a.ID != b.ID || !sameFloat(a.Fitness, b.Fitness) || len(a.Nodes) != len(b.Nodes) || len(a.Conns) != len(b.Conns) {
		return false
	}
	for i := range a.Nodes {
		x, y := a.Nodes[i], b.Nodes[i]
		if !sameFloat(x.Bias, y.Bias) || !sameFloat(x.Response, y.Response) {
			return false
		}
		x.Bias, x.Response, y.Bias, y.Response = 0, 0, 0, 0
		if x != y {
			return false
		}
	}
	for i := range a.Conns {
		x, y := a.Conns[i], b.Conns[i]
		if !sameFloat(x.Weight, y.Weight) {
			return false
		}
		x.Weight, y.Weight = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
