package qdcbir

import (
	"encoding/gob"
	"fmt"
	"io"

	"qdcbir/internal/dataset"
	"qdcbir/internal/feature"
	"qdcbir/internal/img"
	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// This file holds the read-only decoders of the gob archives this build no
// longer writes: the header-less version 0 and the store-backed versions 1
// through 3. Load dispatches to them by header; qdbuild -upgrade rewrites
// such an archive as version 5.

// archiveV0 is the version-0 gob wire format for a whole System, kept so
// archives written before the flat feature store still load. It stores every
// corpus vector twice (once in the RFS snapshot's point table, once inside
// the tree's leaf items) and the original colour channel a third time inside
// ChannelVectors.
type archiveV0 struct {
	Cfg            Config
	Infos          []dataset.Info
	RFS            *rfs.Snapshot
	ChannelVectors map[img.Channel][]vec.Vector
	NormMin        vec.Vector // extractor state (min-max normalizer)
	NormMax        vec.Vector
}

// archiveV1 is the version-1 wire format: the corpus feature vectors travel
// once, as the flat store's backing array, and the RFS hierarchy travels
// point-free (leaf item IDs only). Channels holds the backing arrays of the
// derived colour channels; the original channel is the main Points array and
// is re-aliased on load rather than stored again.
type archiveV1 struct {
	Cfg         Config
	Infos       []dataset.Info
	Dim         int
	Points      []float64
	HasChannels bool
	Channels    map[img.Channel][]float64
	RFS         *rfs.TopologySnapshot
	NormMin     vec.Vector // extractor state (min-max normalizer)
	NormMax     vec.Vector
}

// archiveV2 is the current wire format: every archiveV1 field (same names,
// same encodings — gob matches fields by name, so a v1 payload decodes into
// this struct with Quant left nil) plus the optional SQ8 quantizer of a
// Config.Quantized system, persisted so loads skip retraining.
type archiveV2 struct {
	Cfg         Config
	Infos       []dataset.Info
	Dim         int
	Points      []float64
	HasChannels bool
	Channels    map[img.Channel][]float64
	RFS         *rfs.TopologySnapshot
	NormMin     vec.Vector // extractor state (min-max normalizer)
	NormMax     vec.Vector
	Quant       *store.QuantParts // nil unless the system is quantized
}

// archiveV3 is the current wire format: every archiveV2 field (same names,
// same encodings) plus the corpus store's precision tag. A float32-precision
// store — an imported float32 embedding corpus — persists its rows once, in
// the native Points32 backing (half the bytes, no rounding), leaving Points
// nil; a float64 store persists Points exactly as version 2 did, leaving
// Points32 nil. Gob's field-by-name matching means v1 and v2 payloads decode
// into this struct with Precision empty, which reads as float64.
type archiveV3 struct {
	Cfg         Config
	Infos       []dataset.Info
	Dim         int
	Points      []float64
	HasChannels bool
	Channels    map[img.Channel][]float64
	RFS         *rfs.TopologySnapshot
	NormMin     vec.Vector // extractor state (min-max normalizer)
	NormMax     vec.Vector
	Quant       *store.QuantParts // nil unless the system is quantized
	Precision   string            // store precision ("f64", "f32"; "" = f64)
	Points32    []float32         // store backing of an "f32" archive; Points is nil
}

// loadStoreBacked decodes the store-backed formats (versions 1-3): the
// corpus adopts the decoded backing array — at the persisted precision for a
// version-3 archive — and the RFS structure is rebuilt over the corpus
// store's row views. A quantizer sidecar, when present, is validated and
// adopted so the loaded system scans quantized without retraining.
func loadStoreBacked(r io.Reader) (*System, error) {
	var a archiveV3
	if err := gob.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("qdcbir: decode: %w", err)
	}
	prec, err := store.ParsePrecision(a.Precision)
	if err != nil {
		return nil, fmt.Errorf("qdcbir: corpus store: %w", err)
	}
	var main *store.FeatureStore
	if prec == store.Float32 {
		if a.Points != nil {
			return nil, fmt.Errorf("qdcbir: corpus store: float32 archive carries %d float64 points", len(a.Points))
		}
		main, err = store.FromBacking32(a.Dim, a.Points32)
	} else {
		if a.Points32 != nil {
			return nil, fmt.Errorf("qdcbir: corpus store: float64 archive carries %d float32 points", len(a.Points32))
		}
		main, err = store.FromBacking(a.Dim, a.Points)
	}
	if err != nil {
		return nil, fmt.Errorf("qdcbir: corpus store: %w", err)
	}
	var corpus *dataset.Corpus
	if prec == store.Float32 {
		// Channels are an image-mode concept; float32 stores come from
		// imported vectors, so the store is adopted directly (keeping the
		// native backing) and there are no channels to rebuild.
		corpus, err = dataset.ReassembleStore(a.Infos, main)
	} else {
		vectors := main.Views()
		var channelVectors map[img.Channel][]vec.Vector
		if a.HasChannels {
			channelVectors = map[img.Channel][]vec.Vector{
				img.ChannelOriginal: vectors,
			}
			for ch, backing := range a.Channels {
				cst, err := store.FromBacking(a.Dim, backing)
				if err != nil {
					return nil, fmt.Errorf("qdcbir: channel %v store: %w", ch, err)
				}
				channelVectors[ch] = cst.Views()
			}
		}
		corpus, err = dataset.Reassemble(a.Infos, vectors, channelVectors)
	}
	if err != nil {
		return nil, err
	}
	if a.NormMin != nil {
		corpus.Extractor = feature.NewExtractorFromBounds(a.NormMin, a.NormMax)
	}
	structure, err := rfs.FromTopologySnapshot(a.RFS, corpus.Store())
	if err != nil {
		return nil, err
	}
	var qz *store.Quantized
	if a.Quant != nil {
		qz, err = store.FromParts(*a.Quant)
		if err != nil {
			return nil, fmt.Errorf("qdcbir: quantizer: %w", err)
		}
	}
	return assembleLoaded(a.Cfg, corpus, structure, qz)
}

// loadV0 decodes the legacy gob format. The duplicated original channel in
// old archives is discarded in favour of an alias when the corpus adopts its
// feature store, so version-0 archives load into exactly the deduplicated
// in-memory layout that version-1 archives produce.
func loadV0(r io.Reader) (*System, error) {
	var a archiveV0
	if err := gob.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("qdcbir: decode: %w", err)
	}
	structure, err := rfs.FromSnapshot(a.RFS)
	if err != nil {
		return nil, err
	}
	corpus, err := dataset.Reassemble(a.Infos, vectorsOf(structure), a.ChannelVectors)
	if err != nil {
		return nil, err
	}
	if a.NormMin != nil {
		corpus.Extractor = feature.NewExtractorFromBounds(a.NormMin, a.NormMax)
	}
	return assembleLoaded(a.Cfg, corpus, structure, nil)
}

// vectorsOf extracts the dense vector table from a reconstructed structure.
func vectorsOf(s *rfs.Structure) []vec.Vector {
	out := make([]vec.Vector, s.Len())
	for i := range out {
		out[i] = s.Point(rstar.ItemID(i))
	}
	return out
}
