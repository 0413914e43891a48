package neat

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/gene"
	"repro/internal/rng"
)

// The reflective checkpoint envelope Save and Restore shipped before
// they walked it by hand: encoding/json over mirror structs. It stays
// here as the differential reference. Genomes inside it go through the
// gene codec (MarshalJSON/UnmarshalJSON), which package gene pins to
// its own reflective reference; together the two pins cover every byte.

type checkpoint struct {
	Config        Config              `json:"config"`
	Generation    int                 `json:"generation"`
	NextGenomeID  int64               `json:"nextGenomeId"`
	NextSpeciesID int                 `json:"nextSpeciesId"`
	NextNodeID    int32               `json:"nextNodeId"`
	Genomes       []*gene.Genome      `json:"genomes"`
	BestEver      *gene.Genome        `json:"bestEver,omitempty"`
	Species       []speciesCheckpoint `json:"species,omitempty"`
	RNG           *rng.State          `json:"rng,omitempty"`
}

type speciesCheckpoint struct {
	ID             int          `json:"id"`
	Representative *gene.Genome `json:"representative"`
	BestFitness    float64      `json:"bestFitness"`
	LastImproved   int          `json:"lastImproved"`
	Created        int          `json:"created"`
}

// refSave is the reflective Population.Save.
func refSave(p *Population, w io.Writer) error {
	st := p.rnd.State()
	cp := checkpoint{
		Config:        p.Config,
		Generation:    p.Generation,
		NextGenomeID:  p.nextGenomeID,
		NextSpeciesID: p.nextSpeciesID,
		NextNodeID:    p.ids.next,
		Genomes:       p.Genomes,
		BestEver:      p.BestEver,
		RNG:           &st,
	}
	for _, s := range p.Species {
		cp.Species = append(cp.Species, speciesCheckpoint{
			ID:             s.ID,
			Representative: s.Representative,
			BestFitness:    s.BestFitness,
			LastImproved:   s.LastImproved,
			Created:        s.Created,
		})
	}
	return json.NewEncoder(w).Encode(cp)
}

// refRestore is the reflective Restore. The shipped version
// dereferenced a null genome (a nil-pointer panic on a hostile
// checkpoint); the reference rejects it instead, as Restore now does.
func refRestore(r io.Reader, restoreSeed uint64) (*Population, error) {
	var cp checkpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("neat: restore: %w", err)
	}
	if err := cp.Config.Validate(); err != nil {
		return nil, fmt.Errorf("neat: restore: %w", err)
	}
	if len(cp.Genomes) == 0 {
		return nil, fmt.Errorf("neat: restore: checkpoint has no genomes")
	}
	if len(cp.Genomes) != cp.Config.PopulationSize {
		return nil, fmt.Errorf("neat: restore: checkpoint has %d genomes for population size %d",
			len(cp.Genomes), cp.Config.PopulationSize)
	}
	p, err := NewPopulation(cp.Config, restoreSeed)
	if err != nil {
		return nil, err
	}
	if cp.RNG != nil {
		p.rnd.SetState(*cp.RNG)
	}
	p.Genomes = cp.Genomes
	p.Generation = cp.Generation
	p.nextGenomeID = cp.NextGenomeID
	p.nextSpeciesID = cp.NextSpeciesID
	p.BestEver = cp.BestEver
	if cp.NextNodeID > p.ids.next {
		p.ids.next = cp.NextNodeID
	}
	for _, sc := range cp.Species {
		p.Species = append(p.Species, &Species{
			ID:             sc.ID,
			Representative: sc.Representative,
			BestFitness:    sc.BestFitness,
			LastImproved:   sc.LastImproved,
			Created:        sc.Created,
		})
	}
	for _, g := range p.Genomes {
		if g == nil {
			return nil, fmt.Errorf("neat: restore: null genome")
		}
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("neat: restore: %w", err)
		}
	}
	return p, nil
}
