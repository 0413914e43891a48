package neat

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/gene"
	"repro/internal/jsonwire"
	"repro/internal/rng"
)

// Checkpointing: long evolutionary runs (the paper's MountainCar tail
// reached generation 160) need save/restore of the full algorithm
// state — genomes, species bookkeeping, id counters — not just the
// genome list. A checkpoint is one JSON object:
//
//	{"config":{...},"generation":N,"nextGenomeId":N,"nextSpeciesId":N,"nextNodeId":N,
//	 "genomes":[<genome>,...],"bestEver":<genome>,
//	 "species":[{"id":N,"representative":<genome>,"bestFitness":F,"lastImproved":N,"created":N},...],
//	 "rng":{...}}
//
// bestEver and species are omitted when absent. Save and Restore walk
// the envelope by hand around the gene codec, in one pass; the small
// config and rng values go through encoding/json. The bytes are those
// of the reflective encoding the tests keep as the reference.

// Save writes the population state as JSON, including the live PRNG
// stream: a restored run continues bit-identically to the
// uninterrupted one, generation for generation.
func (p *Population) Save(w io.Writer) error {
	cfg, err := json.Marshal(p.Config)
	if err != nil {
		return err
	}
	st, err := json.Marshal(p.rnd.State())
	if err != nil {
		return err
	}
	// A gene encodes to about 70 bytes at RAM scale, so the buffer is
	// sized up front rather than regrown and recopied as it fills.
	size := len(cfg) + len(st) + 256
	for _, g := range p.Genomes {
		if g != nil {
			size += 80 * g.NumGenes()
		}
	}
	b := make([]byte, 0, size)
	b = append(append(b, `{"config":`...), cfg...)
	b = strconv.AppendInt(append(b, `,"generation":`...), int64(p.Generation), 10)
	b = strconv.AppendInt(append(b, `,"nextGenomeId":`...), p.nextGenomeID, 10)
	b = strconv.AppendInt(append(b, `,"nextSpeciesId":`...), int64(p.nextSpeciesID), 10)
	b = strconv.AppendInt(append(b, `,"nextNodeId":`...), int64(p.ids.next), 10)
	b = append(b, `,"genomes":`...)
	if p.Genomes == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, g := range p.Genomes {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendGenome(b, g); err != nil {
				return err
			}
		}
		b = append(b, ']')
	}
	if p.BestEver != nil {
		if b, err = p.BestEver.AppendJSON(append(b, `,"bestEver":`...)); err != nil {
			return err
		}
	}
	for i, s := range p.Species {
		if i == 0 {
			b = append(b, `,"species":[{"id":`...)
		} else {
			b = append(b, `,{"id":`...)
		}
		b = strconv.AppendInt(b, int64(s.ID), 10)
		if b, err = appendGenome(append(b, `,"representative":`...), s.Representative); err != nil {
			return err
		}
		if b, err = jsonwire.AppendFloat(append(b, `,"bestFitness":`...), s.BestFitness); err != nil {
			return err
		}
		b = strconv.AppendInt(append(b, `,"lastImproved":`...), int64(s.LastImproved), 10)
		b = strconv.AppendInt(append(b, `,"created":`...), int64(s.Created), 10)
		b = append(b, '}')
	}
	if len(p.Species) > 0 {
		b = append(b, ']')
	}
	b = append(append(append(b, `,"rng":`...), st...), "}\n"...)
	_, err = w.Write(b)
	return err
}

// appendGenome appends g's encoding, or null for a nil genome.
func appendGenome(b []byte, g *gene.Genome) ([]byte, error) {
	if g == nil {
		return append(b, "null"...), nil
	}
	return g.AppendJSON(b)
}

// Restore reads a checkpoint and resumes it. When the checkpoint
// carries a PRNG state (every checkpoint this version writes), the
// stream continues bit-identically and restoreSeed is only the
// fallback for older, stream-less checkpoints. Every genome is
// validated as it is decoded.
func Restore(r io.Reader, restoreSeed uint64) (*Population, error) {
	// Size the buffer up front when r knows its length (a bytes.Reader
	// over a store artifact): growing it by appends copies a
	// multi-megabyte RAM checkpoint several times over.
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("neat: restore: %w", err)
	}
	data := buf.Bytes()
	p := &Population{}
	var (
		st         *rng.State
		nextNodeID int32
	)
	s := jsonwire.New(data)
	genome := func() *gene.Genome {
		if s.Null() {
			return nil
		}
		return gene.ReadJSON(s)
	}
	s.Object(func(key []byte) {
		switch string(key) {
		case "config":
			s.Decode(&p.Config)
		case "generation":
			p.Generation = int(s.Int(64))
		case "nextGenomeId":
			p.nextGenomeID = s.Int(64)
		case "nextSpeciesId":
			p.nextSpeciesID = int(s.Int(64))
		case "nextNodeId":
			nextNodeID = int32(s.Int(32))
		case "genomes":
			p.Genomes = nil
			if s.Null() {
				return
			}
			s.Array(func() {
				if g := genome(); g != nil {
					p.Genomes = append(p.Genomes, g)
				} else if s.Err() == nil {
					s.Failf("null genome")
				}
			})
		case "bestEver":
			p.BestEver = genome()
		case "species":
			p.Species = nil
			if s.Null() {
				return
			}
			s.Array(func() { p.Species = append(p.Species, readSpecies(s, genome)) })
		case "rng":
			if s.Null() {
				st = nil
				return
			}
			if st == nil {
				st = &rng.State{}
			}
			s.Decode(st)
		default:
			s.Failf("unknown checkpoint field %q", key)
		}
	})
	s.End()
	if err := s.Err(); err != nil {
		return nil, fmt.Errorf("neat: restore: %w", err)
	}
	if err := p.Config.Validate(); err != nil {
		return nil, fmt.Errorf("neat: restore: %w", err)
	}
	if len(p.Genomes) == 0 {
		return nil, fmt.Errorf("neat: restore: checkpoint has no genomes")
	}
	// Save always writes exactly PopulationSize genomes; a mismatch
	// means a corrupt or hand-edited checkpoint.
	if len(p.Genomes) != p.Config.PopulationSize {
		return nil, fmt.Errorf("neat: restore: checkpoint has %d genomes for population size %d",
			len(p.Genomes), p.Config.PopulationSize)
	}
	p.rnd = rng.New(restoreSeed)
	if st != nil {
		p.rnd.SetState(*st)
	}
	p.ids = newIDAssigner(&p.Config)
	if nextNodeID > p.ids.next {
		p.ids.next = nextNodeID
	}
	return p, nil
}

// readSpecies decodes one species entry; membership is reconstructed
// by re-speciating after restore.
func readSpecies(s *jsonwire.Scanner, genome func() *gene.Genome) *Species {
	sp := &Species{}
	s.Object(func(key []byte) {
		switch string(key) {
		case "id":
			sp.ID = int(s.Int(64))
		case "representative":
			sp.Representative = genome()
		case "bestFitness":
			sp.BestFitness = s.Float()
		case "lastImproved":
			sp.LastImproved = int(s.Int(64))
		case "created":
			sp.Created = int(s.Int(64))
		default:
			s.Failf("unknown species field %q", key)
		}
	})
	return sp
}
