package gene_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/env"
	"repro/internal/gene"
	"repro/internal/neat"
	"repro/internal/rng"
)

// TestCodecMatchesReferenceOnPopulations pins the genome codec to the
// reflective reference on evolved genomes of every registered
// environment's shape (three seeds, after 1 and 3 epochs): every genome a
// checkpoint carries encodes to the reference's bytes and decodes to
// the reference's genome. neat's TestSaveMatchesReference pins the
// checkpoint envelope around them the same way.
func TestCodecMatchesReferenceOnPopulations(t *testing.T) {
	for _, name := range env.Names() {
		e, err := env.New(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := neat.DefaultConfig(e.ObservationSize(), e.ActionSize())
		cfg.PopulationSize = 6
		for seed := uint64(1); seed <= 3; seed++ {
			p, err := neat.NewPopulation(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(seed)
			for epoch := 1; epoch <= 3; epoch++ {
				if _, err := p.Epoch(); err != nil {
					t.Fatal(err)
				}
				if epoch%2 == 0 {
					continue
				}
				genomes := append([]*gene.Genome(nil), p.Genomes...)
				for _, s := range p.Species {
					genomes = append(genomes, s.Representative)
				}
				for _, g := range genomes {
					g.Fitness = r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-15))
					assertCodecMatches(t, name, g)
				}
			}
		}
	}
}

func assertCodecMatches(t *testing.T, name string, g *gene.Genome) {
	t.Helper()
	want, err := gene.ReferenceMarshal(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s genome %d: encoding differs from the reference", name, g.ID)
	}
	ref, err := gene.ReferenceUnmarshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var back gene.Genome
	if err := back.UnmarshalJSON(got); err != nil {
		t.Fatalf("%s genome %d: %v", name, g.ID, err)
	}
	if !gene.SameGenome(&back, ref) || !gene.SameGenome(&back, g) {
		t.Fatalf("%s genome %d: decodes differently from the reference", name, g.ID)
	}
}
