// Package trace records reproduction-operation traces.
//
// The paper's evaluation methodology (Section VI-A) instruments the
// NEAT implementation to emit a trace in which "each line captures the
// generation, the child gene and genome id, the type of operation —
// mutation or crossover, and the parameters changed or added or deleted
// by the operations"; those traces then drive the EvE and ADAM hardware
// models. This package is that artifact: a neat.Recorder that organizes
// events per generation and per child, captures the parent genome sizes
// the gene-split logic streams, and serializes to a line-oriented text
// format.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/gene"
	"repro/internal/neat"
)

// ChildRecord accumulates the gene-level operations that produced one
// child genome — the work one EvE PE performs (one PE per child,
// Section IV-C5).
type ChildRecord struct {
	Child   int64
	Parent1 int64
	Parent2 int64 // -1 for mutation-only children
	// Ops tallies gene-level operations by type.
	Ops [neat.NumOps]int64
}

// TotalOps is the child's total gene-level op count.
func (c *ChildRecord) TotalOps() int64 {
	var n int64
	for _, v := range c.Ops {
		n += v
	}
	return n
}

// GenesStreamed approximates the genes streamed through the PE for this
// child: the crossover ops (one per aligned gene pair) plus structural
// additions.
func (c *ChildRecord) GenesStreamed() int64 {
	return c.Ops[neat.OpCrossover] + c.Ops[neat.OpAddNode] + c.Ops[neat.OpAddConn]
}

// Generation groups the reproduction of one generation.
type Generation struct {
	Index int
	// Children in creation order (the order the gene selector hands
	// them to the gene-split block).
	Children []ChildRecord
	// ParentSizes maps parent genome id → gene count, captured at the
	// start of reproduction; this is what the genome buffer must serve.
	ParentSizes map[int64]int
	// PopulationGenes is the total gene count of the parent population.
	PopulationGenes int

	childIdx map[int64]int
}

// Crossovers sums crossover ops across children.
func (g *Generation) Crossovers() int64 { return g.opTotal(neat.OpCrossover) }

// Mutations sums mutation ops across children.
func (g *Generation) Mutations() int64 {
	var n int64
	for op := neat.OpPerturb; op < neat.Op(neat.NumOps); op++ {
		n += g.opTotal(op)
	}
	return n
}

func (g *Generation) opTotal(op neat.Op) int64 {
	var n int64
	for i := range g.Children {
		n += g.Children[i].Ops[op]
	}
	return n
}

// ParentOf returns how many children used each parent — the
// genome-level-reuse profile the multicast NoC exploits.
func (g *Generation) ParentUse() map[int64]int {
	use := make(map[int64]int)
	for i := range g.Children {
		c := &g.Children[i]
		use[c.Parent1]++
		if c.Parent2 >= 0 {
			use[c.Parent2]++
		}
	}
	return use
}

// Trace is an ordered sequence of generation records. It implements
// neat.Recorder (via Record) and neat.GenerationStarter (via
// StartGeneration), so attaching it to a Population captures everything
// the hardware models need.
type Trace struct {
	Generations []Generation
}

// StartGeneration snapshots the parent population at the beginning of a
// reproduction round.
func (t *Trace) StartGeneration(gen int, genomes []*gene.Genome) {
	g := Generation{
		Index:       gen,
		ParentSizes: make(map[int64]int, len(genomes)),
		childIdx:    make(map[int64]int),
	}
	for _, gn := range genomes {
		g.ParentSizes[gn.ID] = gn.NumGenes()
		g.PopulationGenes += gn.NumGenes()
	}
	t.Generations = append(t.Generations, g)
}

// Record implements neat.Recorder.
func (t *Trace) Record(e neat.Event) {
	if len(t.Generations) == 0 || t.Generations[len(t.Generations)-1].Index != e.Generation {
		// Reproduction without a StartGeneration snapshot (e.g. a bare
		// Population): open an empty generation record.
		t.Generations = append(t.Generations, Generation{
			Index:       e.Generation,
			ParentSizes: map[int64]int{},
			childIdx:    map[int64]int{},
		})
	}
	g := &t.Generations[len(t.Generations)-1]
	idx, ok := g.childIdx[e.Child]
	if !ok {
		idx = len(g.Children)
		g.childIdx[e.Child] = idx
		g.Children = append(g.Children, ChildRecord{
			Child: e.Child, Parent1: e.Parent1, Parent2: e.Parent2,
		})
	}
	g.Children[idx].Ops[e.Op]++
}

// Last returns the most recent generation record, or nil.
func (t *Trace) Last() *Generation {
	if len(t.Generations) == 0 {
		return nil
	}
	return &t.Generations[len(t.Generations)-1]
}

// WriteTo serializes the trace in the paper's line format:
//
//	G <index> <populationGenes>
//	P <parentID> <genes>
//	C <childID> <parent1> <parent2> <ops per type...>
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	emit := func(format string, args ...any) error {
		m, err := fmt.Fprintf(bw, format, args...)
		n += int64(m)
		return err
	}
	for gi := range t.Generations {
		g := &t.Generations[gi]
		if err := emit("G %d %d\n", g.Index, g.PopulationGenes); err != nil {
			return n, err
		}
		// Sorted parent ids: serialization is a pure function of the
		// trace, so identical runs write identical bytes — the property
		// the content-addressed run store's idempotent commits lean on.
		ids := make([]int64, 0, len(g.ParentSizes))
		for id := range g.ParentSizes {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			if err := emit("P %d %d\n", id, g.ParentSizes[id]); err != nil {
				return n, err
			}
		}
		for ci := range g.Children {
			c := &g.Children[ci]
			if err := emit("C %d %d %d", c.Child, c.Parent1, c.Parent2); err != nil {
				return n, err
			}
			for _, v := range c.Ops {
				if err := emit(" %d", v); err != nil {
					return n, err
				}
			}
			if err := emit("\n"); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// maxLine bounds one trace line. WriteTo's longest record, a C line, is
// a few hundred bytes; the scan buffer grows toward the bound only as
// lines demand.
const maxLine = 1 << 20

// Parse reads a trace previously produced by WriteTo.
func Parse(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	var v [3 + neat.NumOps]int64
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		want := 3
		switch fields[0] {
		case "G":
		case "P", "C":
			if len(t.Generations) == 0 {
				return nil, fmt.Errorf("trace: line %d: %s before G", line, fields[0])
			}
			if fields[0] == "C" {
				want = 4 + neat.NumOps
			}
		default:
			return nil, fmt.Errorf("trace: line %d: unknown record %q", line, fields[0])
		}
		if len(fields) != want {
			return nil, fmt.Errorf("trace: line %d: want %d fields, have %d", line, want, len(fields))
		}
		for i, f := range fields[1:] {
			n, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
			v[i] = n
		}
		switch fields[0] {
		case "G":
			t.Generations = append(t.Generations, Generation{
				Index:           int(v[0]),
				PopulationGenes: int(v[1]),
				ParentSizes:     map[int64]int{},
				childIdx:        map[int64]int{},
			})
		case "P":
			t.Generations[len(t.Generations)-1].ParentSizes[v[0]] = int(v[1])
		case "C":
			c := ChildRecord{Child: v[0], Parent1: v[1], Parent2: v[2]}
			copy(c.Ops[:], v[3:])
			g := &t.Generations[len(t.Generations)-1]
			g.childIdx[c.Child] = len(g.Children)
			g.Children = append(g.Children, c)
		}
	}
	return t, sc.Err()
}
