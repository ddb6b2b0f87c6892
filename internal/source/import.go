package source

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Formats the file importers understand.
const (
	FormatJSONL = "jsonl" // one JSON array (or {"label","vector"} object) per line
	FormatCSV   = "csv"   // numeric fields, optional leading label field
	FormatFVecs = "fvecs" // repeated records: int32 dim (LE) + dim float32s (LE)
)

// maxFVecsDim bounds the per-record dimension an .fvecs header may declare,
// so a corrupt or adversarial header cannot demand a giant allocation.
const maxFVecsDim = 1 << 16

// FileSource reads an embedding file in one of the supported formats.
type FileSource struct {
	path   string
	format string
}

// File builds a source for an embedding file. An empty format is inferred
// from the extension (.jsonl/.json, .csv, .fvecs); anything else is rejected
// here rather than at read time.
func File(path, format string) (*FileSource, error) {
	if format == "" {
		switch strings.ToLower(filepath.Ext(path)) {
		case ".jsonl", ".json":
			format = FormatJSONL
		case ".csv":
			format = FormatCSV
		case ".fvecs":
			format = FormatFVecs
		default:
			return nil, fmt.Errorf("source: cannot infer format from %q; pass one of jsonl, csv, fvecs", path)
		}
	}
	switch format {
	case FormatJSONL, FormatCSV, FormatFVecs:
	default:
		return nil, fmt.Errorf("source: unknown format %q (want jsonl, csv, or fvecs)", format)
	}
	return &FileSource{path: path, format: format}, nil
}

// Format returns the (possibly inferred) file format.
func (f *FileSource) Format() string { return f.format }

// Vectors reads and validates the whole file.
func (f *FileSource) Vectors() (*Batch, error) {
	file, err := os.Open(f.path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	return Read(file, f.format)
}

// Read parses one embedding stream in the named format.
func Read(r io.Reader, format string) (*Batch, error) {
	switch format {
	case FormatJSONL:
		return ReadJSONL(r)
	case FormatCSV:
		return ReadCSV(r)
	case FormatFVecs:
		return ReadFVecs(r)
	default:
		return nil, fmt.Errorf("source: unknown format %q (want jsonl, csv, or fvecs)", format)
	}
}

// checkComponent rejects the non-finite values the distance kernels (and the
// SQ8 quantizer) cannot score. row and col are 1-based.
func checkComponent(row, col int, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("source: row %d, column %d: non-finite value %v", row, col, v)
	}
	return nil
}

// jsonlRow is the object form of a JSON-lines record.
type jsonlRow struct {
	Label  string    `json:"label"`
	Vector []float64 `json:"vector"`
}

// ReadJSONL parses JSON lines: each non-blank line is either a bare JSON
// array of numbers or an object {"label": "...", "vector": [...]}. Blank
// lines are skipped but still counted, so error rows match file lines
// (1-based).
func ReadJSONL(r io.Reader) (*Batch, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	b := &Batch{}
	labeled := false
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		var (
			v     []float64
			label string
		)
		if text[0] == '{' {
			var row jsonlRow
			if err := json.Unmarshal(text, &row); err != nil {
				return nil, fmt.Errorf("source: row %d: %w", line, err)
			}
			v, label = row.Vector, row.Label
			labeled = labeled || label != ""
		} else {
			if err := json.Unmarshal(text, &v); err != nil {
				return nil, fmt.Errorf("source: row %d: %w", line, err)
			}
		}
		if err := appendRow(b, line, v, label); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("source: row %d: %w", line+1, err)
	}
	return finishRows(b, labeled)
}

// ReadCSV parses comma-separated rows of numeric fields. A non-numeric first
// field is taken as the row's label; every remaining field must parse as a
// float. Rows are numbered by record (1-based); columns count vector
// components, so a leading label field is not a column.
func ReadCSV(r io.Reader) (*Batch, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // dimension agreement is checked with row context
	cr.TrimLeadingSpace = true
	b := &Batch{}
	labeled := false
	row := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		row++
		if err != nil {
			return nil, fmt.Errorf("source: row %d: %w", row, err)
		}
		fields := rec
		var label string
		if len(fields) > 0 {
			if _, numErr := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64); numErr != nil {
				label = strings.TrimSpace(fields[0])
				labeled = labeled || label != ""
				fields = fields[1:]
			}
		}
		v := make([]float64, 0, len(fields))
		for i, f := range fields {
			f = strings.TrimSpace(f)
			if f == "" {
				if len(fields) == 1 {
					break // a lone empty field is an empty row, reported below
				}
				return nil, fmt.Errorf("source: row %d, column %d: empty field", row, i+1)
			}
			x, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("source: row %d, column %d: %w", row, i+1, err)
			}
			v = append(v, x)
		}
		if err := appendRow(b, row, v, label); err != nil {
			return nil, err
		}
	}
	return finishRows(b, labeled)
}

// ReadFVecs parses the raw little-endian .fvecs format: repeated records of
// an int32 dimension followed by that many float32 components. The first
// record fixes the dimension; later records must agree. The batch keeps the
// native float32 backing, so importing into a float32 system narrows
// nothing. Records are read through one buffer, and when r is a file the
// backing is sized once from its length.
func ReadFVecs(r io.Reader) (*Batch, error) {
	size, sized := remaining(r)
	br := bufio.NewReader(r)
	b := &Batch{}
	rec := make([]byte, 4) // one record: the dimension header, then its components
	for row := 1; ; row++ {
		if _, err := io.ReadFull(br, rec[:4]); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("source: row %d: truncated record header: %w", row, err)
		}
		dim := int(int32(binary.LittleEndian.Uint32(rec[:4])))
		switch {
		case dim == 0:
			return nil, fmt.Errorf("source: row %d: empty row", row)
		case dim < 0 || dim > maxFVecsDim:
			return nil, fmt.Errorf("source: row %d: implausible dimension %d (max %d)", row, dim, maxFVecsDim)
		case b.Dim == 0:
			b.Dim = dim
			rec = make([]byte, 4+4*dim)
			if sized {
				b.Data32 = make([]float32, 0, int(size/int64(len(rec)))*dim)
			}
		case dim != b.Dim:
			return nil, fmt.Errorf("source: row %d: dimension %d, want %d", row, dim, b.Dim)
		}
		if _, err := io.ReadFull(br, rec[4:]); err != nil {
			return nil, fmt.Errorf("source: row %d: truncated record: %w", row, err)
		}
		for i := 0; i < dim; i++ {
			v := math.Float32frombits(binary.LittleEndian.Uint32(rec[4+4*i:]))
			if err := checkComponent(row, i+1, float64(v)); err != nil {
				return nil, err
			}
			b.Data32 = append(b.Data32, v)
		}
	}
	if b.Dim == 0 {
		return nil, fmt.Errorf("source: no vectors in input")
	}
	return b, nil
}

// remaining reports how many bytes r holds from its current position when
// r is a regular file.
func remaining(r io.Reader) (int64, bool) {
	f, ok := r.(*os.File)
	if !ok {
		return 0, false
	}
	info, err := f.Stat()
	if err != nil || !info.Mode().IsRegular() {
		return 0, false
	}
	off, err := f.Seek(0, io.SeekCurrent)
	return info.Size() - off, err == nil
}

// appendRow validates one parsed float64 row against the batch and appends
// it. row is 1-based.
func appendRow(b *Batch, row int, v []float64, label string) error {
	if len(v) == 0 {
		return fmt.Errorf("source: row %d: empty row", row)
	}
	if b.Dim == 0 {
		b.Dim = len(v)
	} else if len(v) != b.Dim {
		return fmt.Errorf("source: row %d: dimension %d, want %d", row, len(v), b.Dim)
	}
	for i, x := range v {
		if err := checkComponent(row, i+1, x); err != nil {
			return err
		}
	}
	b.Data = append(b.Data, v...)
	b.Labels = append(b.Labels, label)
	return nil
}

// finishRows finalizes a float64 batch: label slices are dropped when no row
// carried one, and an empty input is rejected.
func finishRows(b *Batch, labeled bool) (*Batch, error) {
	if b.Dim == 0 {
		return nil, fmt.Errorf("source: no vectors in input")
	}
	if !labeled {
		b.Labels = nil
	}
	return b, nil
}
