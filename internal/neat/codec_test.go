package neat

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/env"
	"repro/internal/rng"
)

// scoreSpread assigns fitnesses spanning encoding/json's float forms
// (plain decimals, exponent form below 1e-6 and at or above 1e21,
// integers, negative zero).
func scoreSpread(p *Population, r *rng.XorWow) {
	for i, g := range p.Genomes {
		switch i % 4 {
		case 0:
			g.Fitness = r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-15))
		case 1:
			g.Fitness = float64(r.Intn(300))
		case 2:
			g.Fitness = r.Float64()
		default:
			g.Fitness = math.Copysign(0, -1)
		}
	}
}

// forEachShapePopulation calls fn on populations of every registered
// environment's input/output shape, three seeds each, after 1 and 3
// epochs (a seed population's genomes differ only in id).
func forEachShapePopulation(t testing.TB, fn func(name string, p *Population)) {
	for _, name := range env.Names() {
		e, err := env.New(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(e.ObservationSize(), e.ActionSize())
		cfg.PopulationSize = 6
		for seed := uint64(1); seed <= 3; seed++ {
			p, err := NewPopulation(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(seed + 100)
			for epoch := 1; epoch <= 3; epoch++ {
				scoreSpread(p, r)
				if _, err := p.Epoch(); err != nil {
					t.Fatal(err)
				}
				if epoch%2 == 1 {
					scoreSpread(p, r)
					fn(name, p)
				}
			}
		}
	}
}

// TestSaveMatchesReference: Save writes the reflective encoder's bytes
// for populations of every workload shape, and Restore rebuilds the
// state the reflective decoder rebuilds.
func TestSaveMatchesReference(t *testing.T) {
	forEachShapePopulation(t, func(name string, p *Population) {
		var got, want bytes.Buffer
		if err := p.Save(&got); err != nil {
			t.Fatal(err)
		}
		if err := refSave(p, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s generation %d: Save differs from the reference encoder", name, p.Generation)
		}
		q, err := Restore(bytes.NewReader(got.Bytes()), 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := refRestore(bytes.NewReader(got.Bytes()), 5)
		if err != nil {
			t.Fatal(err)
		}
		assertSameState(t, q, ref)
	})
}

// assertSameState fails unless both populations save to the same bytes
// (config, counters, genomes, species, PRNG stream) and draw the same
// next PRNG output.
func assertSameState(t testing.TB, a, b *Population) {
	t.Helper()
	var x, y bytes.Buffer
	if err := a.Save(&x); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&y); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x.Bytes(), y.Bytes()) {
		t.Fatal("restored state differs from the reference's")
	}
	if len(a.Species) != len(b.Species) {
		t.Fatalf("species %d vs %d", len(a.Species), len(b.Species))
	}
	if a.ids.local != b.ids.local || a.ids.next != b.ids.next {
		t.Fatal("node id assigner differs")
	}
	sa, sb := *a.rnd, *b.rnd
	if sa.Uint32() != sb.Uint32() {
		t.Fatal("PRNG streams differ")
	}
}

// ramCheckpoint is a checkpoint at alien-ram scale: the 128-input,
// 18-output shape, population 32, after 3 epochs — the population a
// RAM job stores.
func ramCheckpoint(b *testing.B) []byte {
	e, err := env.New("alien-ram")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(e.ObservationSize(), e.ActionSize())
	cfg.PopulationSize = 32
	p, err := NewPopulation(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	for gen := 0; gen < 3; gen++ {
		scoreSpread(p, r)
		if _, err := p.Epoch(); err != nil {
			b.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkCheckpointSave(b *testing.B) {
	p, err := Restore(bytes.NewReader(ramCheckpoint(b)), 1)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := p.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkCheckpointRestore(b *testing.B) {
	data := ramCheckpoint(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Restore(bytes.NewReader(data), 1); err != nil {
			b.Fatal(err)
		}
	}
}
