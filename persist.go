package qdcbir

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"qdcbir/internal/dataset"
	"qdcbir/internal/feature"
	"qdcbir/internal/img"
	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// Versioned archives open with a 4-byte header: the 3-byte family prefix
// 0xD1 'Q' 'D' followed by a version byte. The first byte (0xD1) can never
// begin a gob stream — gob encodes the leading message length as a varint
// whose first byte is either a small count (0x00..0x7F) or a length-of-length
// marker (0xF8..0xFF) — so the prefix unambiguously separates headered
// archives from the header-less version-0 gob archives Load still accepts.
var archivePrefix = [3]byte{0xD1, 'Q', 'D'}

// Archive versions this build reads (Save always writes the newest).
const (
	archiveVersionV1  = 1 // flat feature store, point-free RFS topology
	archiveVersionV2  = 2 // v1 plus the optional SQ8 quantizer sidecar
	archiveVersionV3  = 3 // v2 plus the store precision and a native float32 backing
	archiveVersionV4  = 4 // dynamic segmented archive (Dynamic.Save / LoadDynamic)
	archiveVersionMax = archiveVersionV3
)

// ArchiveVersionCurrent is the archive format version Save writes.
const ArchiveVersionCurrent = archiveVersionMax

// DynamicArchiveVersion is the archive format version Dynamic.Save writes.
// Dynamic archives share the 4-byte header family with static archives but
// are a distinct kind: LoadDynamic reads every version (wrapping static
// archives as a single sealed segment), while the static Load rejects
// version 4 with a pointer to LoadDynamic.
const DynamicArchiveVersion = archiveVersionV4

// ArchiveHeaderVersion inspects the first bytes of an archive stream: it
// returns (version, true) when head begins with the versioned-family 4-byte
// magic, and (0, false) otherwise — a false result means either a legacy
// header-less version-0 gob archive or a foreign format (such as a shard
// archive, which carries its own magic). Loaders use this to sniff the
// archive kind before committing to a decoder.
func ArchiveHeaderVersion(head []byte) (int, bool) {
	if len(head) < 4 || !bytes.Equal(head[:3], archivePrefix[:]) {
		return 0, false
	}
	return int(head[3]), true
}

// archiveHeader returns the 4-byte header of the given archive version.
func archiveHeader(version byte) []byte {
	return []byte{archivePrefix[0], archivePrefix[1], archivePrefix[2], version}
}

// archive is the version-0 gob wire format for a whole System, kept so
// archives written before the flat feature store still load. It stores every
// corpus vector twice (once in the RFS snapshot's point table, once inside
// the tree's leaf items) and the original colour channel a third time inside
// ChannelVectors.
type archive struct {
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

// archiveBody captures the system's persistent state in the version-1
// layout, which versions 2 and 3 extend field-for-field.
func (s *System) archiveBody() archiveV1 {
	st := s.corpus.Store()
	a := archiveV1{
		Cfg:         s.cfg,
		Infos:       s.corpus.Infos,
		Dim:         st.Dim(),
		Points:      st.Backing(),
		HasChannels: s.corpus.ChannelVectors != nil,
		RFS:         s.rfs.TopologySnapshot(),
	}
	for ch, cst := range s.corpus.ChannelStores() {
		if ch == img.ChannelOriginal {
			continue // aliases the main store; re-aliased on load
		}
		if a.Channels == nil {
			a.Channels = make(map[img.Channel][]float64)
		}
		a.Channels[ch] = cst.Backing()
	}
	if s.corpus.Extractor != nil {
		min, max := s.corpus.Extractor.NormalizerBounds()
		a.NormMin, a.NormMax = min, max
	}
	return a
}

// Save persists the system to w in the version-3 format: a 4-byte header
// followed by the gob-encoded archiveV3. Ground truth, configuration, the
// feature normalizer, the store precision, and (for quantized systems) the
// SQ8 quantizer travel alongside the store backing and the point-free RFS
// topology, so a Load-ed system answers queries identically. A system saved
// from an older archive upgrades to version 3 on the next Save.
func (s *System) Save(w io.Writer) error {
	body := s.archiveBody()
	st := s.corpus.Store()
	a := archiveV3{
		Cfg:         body.Cfg,
		Infos:       body.Infos,
		Dim:         body.Dim,
		Points:      body.Points,
		HasChannels: body.HasChannels,
		Channels:    body.Channels,
		RFS:         body.RFS,
		NormMin:     body.NormMin,
		NormMax:     body.NormMax,
		Precision:   st.Precision().String(),
	}
	if st.Precision() == store.Float32 {
		// Persist the native rows once; the float64 view is rebuilt by exact
		// widening on load.
		a.Points, a.Points32 = nil, st.Backing32()
	}
	if s.quant != nil {
		parts := s.quant.Parts()
		a.Quant = &parts
	}
	if _, err := w.Write(archiveHeader(archiveVersionV3)); err != nil {
		return fmt.Errorf("qdcbir: write header: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(&a); err != nil {
		return fmt.Errorf("qdcbir: encode: %w", err)
	}
	return nil
}

// SaveFile persists the system to a file.
func (s *System) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// SaveFileAsync starts writing what SaveFile writes to path on another
// goroutine and returns a function that waits for it and returns its error.
// gob numbers types process-wide in the order they are first encoded, so the
// archive's types are numbered before SaveFileAsync returns: another archive
// written meanwhile (a shard slice) gets the same numbers, and the same
// bytes, as if it were written after this one.
func (s *System) SaveFileAsync(path string) (wait func() error) {
	if err := gob.NewEncoder(io.Discard).Encode(&archiveV3{}); err != nil {
		panic(fmt.Sprintf("qdcbir: register archive types: %v", err)) // unreachable
	}
	done := make(chan error, 1)
	go func() { done <- s.SaveFile(path) }()
	return func() error { return <-done }
}

// Load reconstructs a system persisted by Save. Every archive version this
// build knows — the current version 3, versions 1 and 2, and the header-less
// version-0 gob format — is accepted; the version is detected from the first
// bytes of the stream. A headered archive of an unknown version is rejected
// with an error naming the on-disk version and the supported range.
func Load(r io.Reader) (*System, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if len(head) == 0 || head[0] != archivePrefix[0] {
		// Not the headered family: either a version-0 bare gob stream or
		// garbage, which gob rejects with its own decode error.
		return loadV0(br)
	}
	if len(head) < 4 {
		return nil, fmt.Errorf("qdcbir: truncated archive header: %d byte(s) of the 4-byte magic (%w)", len(head), err)
	}
	if !bytes.Equal(head[:3], archivePrefix[:]) {
		return nil, fmt.Errorf("qdcbir: corrupt archive header % x: want prefix % x", head, archivePrefix)
	}
	version := head[3]
	if version == archiveVersionV4 {
		return nil, fmt.Errorf("qdcbir: archive version %d is a dynamic segmented archive: load it with LoadDynamic", version)
	}
	if version < archiveVersionV1 || version > archiveVersionMax {
		return nil, fmt.Errorf("qdcbir: archive version %d unsupported: this build reads versions 0 through %d (version 0 archives are header-less)",
			version, archiveVersionMax)
	}
	if _, err := br.Discard(4); err != nil {
		return nil, fmt.Errorf("qdcbir: read header: %w", err)
	}
	// Versions 1 through 3 share a payload layout (each adds optional
	// fields, which gob leaves zero when absent), so one decoder serves all
	// three.
	return loadStoreBacked(br)
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
	var a archive
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

// LoadFile reconstructs a system from a file written by SaveFile.
func LoadFile(path string) (*System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// vectorsOf extracts the dense vector table from a reconstructed structure.
func vectorsOf(s *rfs.Structure) []vec.Vector {
	out := make([]vec.Vector, s.Len())
	for i := range out {
		out[i] = s.Point(rstar.ItemID(i))
	}
	return out
}

// assembleLoaded wires a reconstructed structure without rebuilding it. A
// non-nil qz is the archive's persisted quantizer; a quantized config with
// no persisted quantizer (a v0/v1 archive saved before quantization existed)
// retrains one from the corpus store, so either way the loaded system scans
// exactly like the one that was saved.
func assembleLoaded(cfg Config, corpus *dataset.Corpus, structure *rfs.Structure, qz *store.Quantized) (*System, error) {
	cfg = cfg.withDefaults()
	if err := structure.Validate(); err != nil {
		return nil, fmt.Errorf("qdcbir: rfs: %w", err)
	}
	if err := corpus.Validate(); err != nil {
		return nil, fmt.Errorf("qdcbir: corpus: %w", err)
	}
	quant := attachQuantizer(&cfg, corpus, structure, qz)
	engine := newEngine(cfg, structure)
	return &System{cfg: cfg, corpus: corpus, rfs: structure, engine: engine, quant: quant}, nil
}
