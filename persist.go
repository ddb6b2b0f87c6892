package qdcbir

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

	"qdcbir/internal/archive"
	"qdcbir/internal/dataset"
	"qdcbir/internal/feature"
	"qdcbir/internal/img"
	"qdcbir/internal/rfs"
	"qdcbir/internal/rstar"
	"qdcbir/internal/store"
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
	archiveVersionV1  = 1 // flat feature store, point-free RFS topology (gob)
	archiveVersionV2  = 2 // v1 plus the optional SQ8 quantizer sidecar (gob)
	archiveVersionV3  = 3 // v2 plus the store precision and a native float32 backing (gob)
	archiveVersionV4  = 4 // dynamic segmented archive (Dynamic.Save / LoadDynamic)
	archiveVersionV5  = 5 // flat checksummed sections (internal/archive)
	archiveVersionMax = archiveVersionV5
)

// ArchiveVersionCurrent is the archive format version Save writes.
const ArchiveVersionCurrent = archiveVersionV5

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

// magicV5 opens a version-5 archive, an internal/archive container.
var magicV5 = [4]byte{archivePrefix[0], archivePrefix[1], archivePrefix[2], archiveVersionV5}

// The sections of a version-5 archive. rows holds the corpus rows at the
// store's precision; chanN holds MV colour channel N's rows (float64; the
// original channel is rows itself). norm, the chanN and the sq8 pair are
// present only when the system has them.
const (
	secMeta      = "meta"       // metaV5 as JSON
	secLabels    = "labels"     // each row's index into metaV5.Labels
	secTopo      = "topo"       // tree shape, leaf IDs and representatives, pre-order
	secNorm      = "norm"       // feature normalizer: mins, then maxs (float64)
	secSQ8Bounds = "sq8.bounds" // quantizer: mins, then maxs (float64)
	secRows      = "rows"
	secSQ8Codes  = "sq8.codes" // quantizer codes, store order
)

func chanSection(ch img.Channel) string { return fmt.Sprintf("chan%d", ch) }

// metaV5 is the small, self-describing part of a version-5 archive.
type metaV5 struct {
	Config    Config
	Rows      int
	Dim       int
	Precision string        // "f64" or "f32"
	Channels  []img.Channel `json:",omitempty"` // MV channels, original included; nil without
	Labels    [][2]string   // distinct (category, subconcept) pairs; the labels section indexes them
	RFS       rfs.BuildConfig
	Tree      rstar.Config
	FromBulk  bool
	SQ8Clean  bool `json:",omitempty"`
}

// sectionError names the archive section a decoding step failed in.
func sectionError(name, format string, args ...any) error {
	return &archive.Error{Section: name, Err: fmt.Errorf(format, args...)}
}

// Save persists the system to w as a version-5 archive: the 4-byte header
// opens an internal/archive container whose sections carry the metadata
// (configuration, dimension, precision), the ground-truth labels, the
// point-free RFS topology, the feature normalizer, the corpus rows at their
// native precision, the MV channel rows and, for a quantized system, the
// SQ8 quantizer — so a Load-ed system answers queries identically. Only the
// small sections are built in memory; the rows, channels and codes are
// written straight from their backing arrays. A system loaded from an older
// archive is written as version 5.
func (s *System) Save(w io.Writer) error {
	st := s.corpus.Store()
	topo := s.rfs.TopologySnapshot()
	m := metaV5{
		Config: s.cfg, Rows: st.Len(), Dim: st.Dim(), Precision: st.Precision().String(),
		RFS: topo.Cfg, Tree: topo.Tree.Cfg, FromBulk: topo.Tree.FromBulk,
	}
	for ch := range s.corpus.ChannelStores() {
		m.Channels = append(m.Channels, ch)
	}
	slices.Sort(m.Channels)
	var quant store.QuantParts
	if s.quant != nil {
		quant = s.quant.Parts()
		m.SQ8Clean = quant.Clean
	}
	var labels []byte
	var err error
	if m.Labels, labels, err = encodeLabels(s.corpus.Infos); err != nil {
		return err
	}
	meta, err := json.Marshal(&m)
	if err != nil {
		return fmt.Errorf("qdcbir: encode meta: %w", err)
	}
	// The small sections first, then the rows, channels and codes.
	secs := []archive.Section{
		archive.Bytes(secMeta, meta),
		archive.Bytes(secLabels, labels),
		archive.Bytes(secTopo, encodeTopology(topo)),
	}
	if ex := s.corpus.Extractor; ex != nil {
		min, max := ex.NormalizerBounds()
		secs = append(secs, archive.Float64s(secNorm, append(min, max...)))
	}
	if s.quant != nil {
		secs = append(secs, archive.Float64s(secSQ8Bounds, append(slices.Clip(quant.Mins), quant.Maxs...)))
	}
	if st.Precision() == store.Float32 {
		secs = append(secs, archive.Float32s(secRows, st.Backing32()))
	} else {
		secs = append(secs, archive.Float64s(secRows, st.Backing()))
	}
	for _, ch := range m.Channels {
		if ch != img.ChannelOriginal {
			secs = append(secs, archive.Float64s(chanSection(ch), s.corpus.ChannelStores()[ch].Backing()))
		}
	}
	if s.quant != nil {
		secs = append(secs, archive.Bytes(secSQ8Codes, quant.Codes))
	}
	if err := archive.Write(w, magicV5, secs...); err != nil {
		return fmt.Errorf("qdcbir: %w", err)
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
func (s *System) SaveFileAsync(path string) (wait func() error) {
	done := make(chan error, 1)
	go func() { done <- s.SaveFile(path) }()
	return func() error { return <-done }
}

// Load reconstructs a system persisted by Save. Every static archive
// version this build knows — the current version 5, the gob versions 1
// through 3, and the header-less version-0 gob format — is accepted; the
// version is detected from the first bytes of the stream. A headered archive
// of an unknown version is rejected with an error naming the on-disk version
// and the supported range.
func Load(r io.Reader) (*System, error) {
	return load(r, streamLen(r))
}

// LoadFile reconstructs a system from a file written by SaveFile. A
// version-5 archive is read into one buffer of the file's size.
func LoadFile(path string) (*System, error) {
	f, size, err := openSized(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return load(f, size)
}

// streamLen returns the bytes left in r when r tells them (a bytes.Reader
// or bytes.Buffer does), and -1 otherwise.
func streamLen(r io.Reader) int64 {
	if l, ok := r.(interface{ Len() int }); ok {
		return int64(l.Len())
	}
	return -1
}

// openSized opens the file at path and returns its length.
func openSized(path string) (*os.File, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// load is Load over a stream of size bytes (negative when unknown).
func load(r io.Reader, size int64) (*System, error) {
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
	switch version := head[3]; {
	case version == archiveVersionV5:
		return loadV5(br, size)
	case version == archiveVersionV4:
		return nil, fmt.Errorf("qdcbir: archive version %d is a dynamic segmented archive: load it with LoadDynamic", version)
	case version < archiveVersionV1 || version > archiveVersionMax:
		return nil, fmt.Errorf("qdcbir: archive version %d unsupported: this build reads versions 0 through %d (version 0 archives are header-less; version 4 is dynamic)",
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

// loadV5 reads and verifies a version-5 archive, then builds the system
// from its sections. The rows (and SQ8 codes) alias the archive's buffer on
// a little-endian host.
func loadV5(r io.Reader, size int64) (*System, error) {
	f, err := archive.Read(r, magicV5, size)
	if err != nil {
		return nil, fmt.Errorf("qdcbir: %w", err)
	}
	parts, err := decodeV5(f)
	if err != nil {
		return nil, fmt.Errorf("qdcbir: %w", err)
	}
	return assembleLoaded(parts.cfg, parts.corpus, parts.rfs, parts.quant)
}

// decodeV5 decodes the sections of a verified archive into the parts of a
// system, which assembleLoaded then wires.
func decodeV5(f *archive.File) (*System, error) {
	raw, err := f.Bytes(secMeta)
	if err != nil {
		return nil, err
	}
	var m metaV5
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, sectionError(secMeta, "%v", err)
	}
	prec, err := store.ParsePrecision(m.Precision)
	if err != nil || m.Dim < 1 || m.Rows < 1 || (prec == store.Float32 && m.Channels != nil) {
		return nil, sectionError(secMeta, "%d rows of dim %d at precision %q with channels %v", m.Rows, m.Dim, m.Precision, m.Channels)
	}
	// rows checks that a float section read without error holds m.Rows rows.
	rows := func(name string, n int, err error) error {
		if err == nil && (n%m.Dim != 0 || n/m.Dim != m.Rows) {
			err = sectionError(name, "%d values for %d rows of dim %d", n, m.Rows, m.Dim)
		}
		return err
	}
	var main *store.FeatureStore
	if prec == store.Float32 {
		v, err := f.Float32s(secRows)
		if err := rows(secRows, len(v), err); err != nil {
			return nil, err
		}
		main, _ = store.FromBacking32(m.Dim, v)
	} else {
		v, err := f.Float64s(secRows)
		if err := rows(secRows, len(v), err); err != nil {
			return nil, err
		}
		main, _ = store.FromBacking(m.Dim, v)
	}
	var channels map[img.Channel]*store.FeatureStore
	for _, ch := range m.Channels {
		if channels == nil {
			channels = make(map[img.Channel]*store.FeatureStore, len(m.Channels))
		}
		if ch == img.ChannelOriginal {
			channels[ch] = main
			continue
		}
		v, err := f.Float64s(chanSection(ch))
		if err := rows(chanSection(ch), len(v), err); err != nil {
			return nil, err
		}
		channels[ch], _ = store.FromBacking(m.Dim, v)
	}
	if raw, err = f.Bytes(secLabels); err != nil {
		return nil, err
	}
	infos, err := decodeLabels(m.Labels, raw, m.Rows)
	if err != nil {
		return nil, err
	}
	corpus, err := dataset.ReassembleStores(infos, main, channels)
	if err != nil {
		return nil, err
	}
	if f.Has(secNorm) {
		bounds, err := f.Float64s(secNorm)
		if err == nil && len(bounds)%2 != 0 {
			err = sectionError(secNorm, "%d values do not split into mins and maxs", len(bounds))
		}
		if err != nil {
			return nil, err
		}
		corpus.Extractor = feature.NewExtractorFromBounds(bounds[:len(bounds)/2], bounds[len(bounds)/2:])
	}
	if raw, err = f.Bytes(secTopo); err != nil {
		return nil, err
	}
	topo, err := decodeTopology(raw, &m)
	if err != nil {
		return nil, err
	}
	structure, err := rfs.FromTopologySnapshot(topo, corpus.Store())
	if err != nil {
		return nil, err
	}
	var qz *store.Quantized
	if f.Has(secSQ8Codes) {
		codes, _ := f.Bytes(secSQ8Codes)
		bounds, err := f.Float64s(secSQ8Bounds)
		if err == nil && (len(bounds) != 2*m.Dim || len(codes) != m.Rows*m.Dim) {
			err = sectionError(secSQ8Codes, "%d codes and %d bounds for %d rows of dim %d", len(codes), len(bounds), m.Rows, m.Dim)
		}
		if err != nil {
			return nil, err
		}
		if qz, err = store.FromQuantParts(m.Dim, codes, bounds[:m.Dim], bounds[m.Dim:], m.SQ8Clean); err != nil {
			return nil, fmt.Errorf("quantizer: %w", err)
		}
	}
	return &System{cfg: m.Config, corpus: corpus, rfs: structure, quant: qz}, nil
}

// encodeLabels returns the distinct (category, subconcept) pairs of infos,
// in order of first appearance, and the labels section: each row's pair
// index, in 1, 2 or 4 little-endian bytes as the pair count requires.
func encodeLabels(infos []dataset.Info) ([][2]string, []byte, error) {
	index := make(map[[2]string]int)
	var table [][2]string
	for i, in := range infos {
		if in.ID != i {
			return nil, nil, fmt.Errorf("qdcbir: encode labels: info %d has ID %d", i, in.ID)
		}
		if p := [2]string{in.Category, in.Subconcept}; index[p] == 0 {
			table = append(table, p)
			index[p] = len(table) // 1-based, so 0 reads as absent
		}
	}
	width := labelWidth(len(table))
	le := binary.LittleEndian
	b := make([]byte, 0, width*len(infos))
	for _, in := range infos {
		k := index[[2]string{in.Category, in.Subconcept}] - 1
		switch width {
		case 1:
			b = append(b, byte(k))
		case 2:
			b = le.AppendUint16(b, uint16(k))
		default:
			b = le.AppendUint32(b, uint32(k))
		}
	}
	return table, b, nil
}

// labelWidth is the bytes of a row's index into n label pairs.
func labelWidth(n int) int {
	switch {
	case n > 1<<16:
		return 4
	case n > 1<<8:
		return 2
	}
	return 1
}

// decodeLabels builds rows infos from the pair table and the labels
// section. Every row shares its pair's strings; none is allocated per row.
func decodeLabels(table [][2]string, idx []byte, rows int) ([]dataset.Info, error) {
	width := labelWidth(len(table))
	if len(idx) != width*rows {
		return nil, sectionError(secLabels, "%d bytes for %d rows of %d-byte indexes", len(idx), rows, width)
	}
	le := binary.LittleEndian
	infos := make([]dataset.Info, rows)
	for i := range infos {
		var k int
		switch width {
		case 1:
			k = int(idx[i])
		case 2:
			k = int(le.Uint16(idx[2*i:]))
		default:
			k = int(le.Uint32(idx[4*i:]))
		}
		if k >= len(table) {
			return nil, sectionError(secLabels, "row %d has label %d of %d", i, k, len(table))
		}
		infos[i] = dataset.Info{ID: i, Category: table[k][0], Subconcept: table[k][1]}
	}
	return infos, nil
}

// encodeTopology writes the topo section as uint32 words: the node count;
// per node in pre-order, its entry count shifted left once, or'ed with 1 for
// a leaf (a leaf's entries are item IDs, an internal node's its children);
// every leaf's item IDs in pre-order; per node its representative count;
// and every node's representative IDs in pre-order.
func encodeTopology(t *rfs.TopologySnapshot) []byte {
	var nodes []*rstar.TopologyNode
	var walk func(n *rstar.TopologyNode)
	walk = func(n *rstar.TopologyNode) {
		nodes = append(nodes, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Tree.Root)
	words := 1 + 2*len(nodes)
	for i, n := range nodes {
		words += len(n.IDs) + len(t.RepsPreorder[i])
	}
	le := binary.LittleEndian
	b := le.AppendUint32(make([]byte, 0, 4*words), uint32(len(nodes)))
	for _, n := range nodes {
		if n.Leaf {
			b = le.AppendUint32(b, uint32(len(n.IDs))<<1|1)
		} else {
			b = le.AppendUint32(b, uint32(len(n.Children))<<1)
		}
	}
	for _, n := range nodes {
		for _, id := range n.IDs {
			b = le.AppendUint32(b, uint32(id))
		}
	}
	for _, reps := range t.RepsPreorder {
		b = le.AppendUint32(b, uint32(len(reps)))
	}
	for _, reps := range t.RepsPreorder {
		for _, id := range reps {
			b = le.AppendUint32(b, uint32(id))
		}
	}
	return b
}

// maxTreeDepth bounds the tree a topo section may describe.
const maxTreeDepth = 64

// decodeTopology reads what encodeTopology wrote into one snapshot whose
// nodes, child lists, item IDs and representative lists each share one
// array. Item IDs are checked by rfs.FromTopologySnapshot; representative
// IDs are checked here against the row count.
func decodeTopology(b []byte, m *metaV5) (*rfs.TopologySnapshot, error) {
	le := binary.LittleEndian
	if len(b)%4 != 0 || len(b) < 4 {
		return nil, sectionError(secTopo, "%d bytes is not a whole number of words", len(b))
	}
	words := len(b) / 4
	word := func(i int) uint32 { return le.Uint32(b[4*i:]) }
	n := int(word(0))
	if n < 1 || n > (words-1)/2 {
		return nil, sectionError(secTopo, "%d nodes in %d words", n, words)
	}
	var items, kids int
	for i := 1; i <= n; i++ {
		if w := int(word(i) >> 1); word(i)&1 == 1 {
			items += w
		} else {
			kids += w
		}
	}
	if kids != n-1 || items > words-1-2*n {
		return nil, sectionError(secTopo, "%d nodes with %d children and %d items in %d words", n, kids, items, words)
	}
	repsAt := 1 + n + items
	var reps int
	for i := 0; i < n; i++ {
		reps += int(word(repsAt + i))
	}
	if reps != words-repsAt-n {
		return nil, sectionError(secTopo, "%d representatives in %d words", reps, words-repsAt-n)
	}
	nodes := make([]rstar.TopologyNode, n)
	children := make([]*rstar.TopologyNode, 0, kids)
	itemIDs := make([]rstar.ItemID, items)
	for i := range itemIDs {
		itemIDs[i] = rstar.ItemID(word(1 + n + i))
	}
	// Re-link the pre-order: open holds the internal nodes still owed
	// children, innermost last.
	type owed struct{ node, left int }
	open := make([]owed, 0, maxTreeDepth)
	for i := range nodes {
		nd, w := &nodes[i], int(word(1+i)>>1)
		if i > 0 {
			if len(open) == 0 {
				return nil, sectionError(secTopo, "node %d has no parent", i)
			}
			top := &open[len(open)-1]
			p := &nodes[top.node]
			p.Children = append(p.Children, nd)
			if top.left--; top.left == 0 {
				open = open[:len(open)-1]
			}
		}
		if nd.Leaf = word(1+i)&1 == 1; nd.Leaf {
			nd.IDs, itemIDs = itemIDs[:w:w], itemIDs[w:]
			continue
		}
		if w == 0 {
			return nil, sectionError(secTopo, "internal node %d has no children", i)
		}
		if len(open) == maxTreeDepth {
			return nil, sectionError(secTopo, "tree deeper than %d levels", maxTreeDepth)
		}
		nd.Children, children = children[len(children):len(children):len(children)+w], children[:len(children)+w]
		open = append(open, owed{i, w})
	}
	if len(open) != 0 {
		return nil, sectionError(secTopo, "node %d is owed %d more children", open[len(open)-1].node, open[len(open)-1].left)
	}
	repLists := make([][]rstar.ItemID, n)
	repIDs := make([]rstar.ItemID, reps)
	at := repsAt + n
	for i := range repIDs {
		if id := word(at + i); int64(id) < int64(m.Rows) {
			repIDs[i] = rstar.ItemID(id)
		} else {
			return nil, sectionError(secTopo, "representative %d of %d rows", id, m.Rows)
		}
	}
	for i := range repLists {
		c := int(word(repsAt + i))
		repLists[i], repIDs = repIDs[:c:c], repIDs[c:]
	}
	return &rfs.TopologySnapshot{
		Cfg:          m.RFS,
		Tree:         &rstar.Topology{Dim: m.Dim, Cfg: m.Tree, FromBulk: m.FromBulk, Root: &nodes[0]},
		RepsPreorder: repLists,
	}, nil
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
