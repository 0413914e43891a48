package neat

import (
	"bytes"
	"testing"
)

// FuzzRestore hardens checkpoint decoding against malformed input and
// pins it to the reflective reference envelope (refRestore): Restore
// must never panic, must accept nothing the reference rejects, must
// rebuild exactly the reference's state from what it accepts, and must
// accept every document the reference accepts once Save re-encodes it.
func FuzzRestore(f *testing.F) {
	// Seed corpus: a real checkpoint from a small evolved population,
	// plus structured garbage near the rejection boundaries.
	cfg := DefaultConfig(2, 1)
	cfg.PopulationSize = 8
	p, err := NewPopulation(cfg, 1)
	if err != nil {
		f.Fatal(err)
	}
	for gen := 0; gen < 2; gen++ {
		for i, g := range p.Genomes {
			g.Fitness = float64(i)
		}
		if _, err := p.Epoch(); err != nil {
			f.Fatal(err)
		}
	}
	var seed bytes.Buffer
	if err := p.Save(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("{"))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"config":{"PopulationSize":10},"genomes":[]}`))
	f.Add([]byte(`{"config":{"PopulationSize":10,"NumInputs":2,"NumOutputs":1,` +
		`"InitialConnection":"full","CompatThreshold":3,"SurvivalThreshold":0.2,` +
		`"TournamentSize":3},"genomes":[{"id":1,"nodes":[],"conns":[]}],` +
		`"rng":{"x":0,"y":0,"z":0,"w":0,"v":0,"d":0}}`))
	f.Add([]byte(`{"config":{"PopulationSize":1,"NumInputs":2,"NumOutputs":1,` +
		`"InitialConnection":"full","CompatThreshold":3,"SurvivalThreshold":0.2,` +
		`"TournamentSize":3},"genomes":[null]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := refRestore(bytes.NewReader(data), 7)
		q, err := Restore(bytes.NewReader(data), 7)
		if err == nil {
			if refErr != nil {
				t.Fatalf("accepted a checkpoint the reference rejects (%v)", refErr)
			}
			assertSameState(t, q, ref)
		}
		if refErr != nil {
			return
		}
		var out bytes.Buffer
		if err := ref.Save(&out); err != nil {
			t.Fatalf("accepted checkpoint failed to save: %v", err)
		}
		back, err := Restore(bytes.NewReader(out.Bytes()), 8)
		if err != nil {
			t.Fatalf("re-saved checkpoint failed to restore: %v", err)
		}
		assertSameState(t, back, ref)
	})
}
