package qdcbir

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"io"
	"testing"

	"qdcbir/internal/archive"
	"qdcbir/internal/img"
	"qdcbir/internal/store"
)

// archiveBody captures the system's persistent state in the version-1
// layout, which versions 2 and 3 extend field-for-field. Tests use it to
// write the gob archives older builds wrote.
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

// saveV3 writes the system as the version-3 gob archive older builds'
// Save wrote, for fixtures.
func (s *System) saveV3(w io.Writer) error {
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
		a.Points, a.Points32 = nil, st.Backing32()
	}
	if s.quant != nil {
		parts := s.quant.Parts()
		a.Quant = &parts
	}
	if _, err := w.Write(archiveHeader(archiveVersionV3)); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(&a)
}

// openV5 verifies a version-5 archive and decodes its meta section.
func openV5(t testing.TB, b []byte) (*archive.File, metaV5) {
	t.Helper()
	f, err := archive.Read(bytes.NewReader(b), magicV5, int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := f.Bytes(secMeta)
	if err != nil {
		t.Fatal(err)
	}
	var m metaV5
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return f, m
}
