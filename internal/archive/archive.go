// Package archive is a flat container of named byte sections: a 16-byte
// header, a section table, and the sections themselves at 64-byte-aligned
// offsets. Every section carries a CRC-32C (Castagnoli) of its bytes, and
// the header carries one over itself and the table, so a reader verifies the
// whole file before it builds anything from it.
//
// Layout (all integers little-endian):
//
//	[0:4)    magic: chosen by the caller (the system archive's is 0xD1 'Q' 'D' 5)
//	[4:8)    section count n
//	[8:12)   reserved, zero
//	[12:16)  CRC-32C of bytes [0:12) followed by the table
//	[16:16+32n) table: per section a 12-byte NUL-padded name, the CRC-32C of
//	         its bytes (uint32), its offset (uint64) and its length (uint64)
//	then     the sections in table order, each at the next 64-byte-aligned
//	         offset, zero bytes between them; the file ends where the last
//	         section does.
//
// A writer streams big sections straight from their backing arrays (see
// Float64s); a reader takes the whole file in one buffer and, on a
// little-endian host, hands out float views that alias it.
package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"unsafe"
)

const (
	headerSize = 16
	entrySize  = 32
	nameSize   = 12
	// Align is the alignment of every section's offset: a cache line, and a
	// multiple of every element size a section holds.
	Align = 64
	// MaxSections bounds the table a reader accepts.
	MaxSections = 64
	// maxLen bounds a section's length, so offsets never overflow.
	maxLen = 1 << 48
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// littleEndian reports whether the host stores integers little-endian, in
// which case float sections are written from and read into their arrays'
// own bytes. Tests clear it to run the portable path.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Error is a reader's complaint about one part of a container: "header",
// "section table", or a section's name.
type Error struct {
	Section string
	Err     error
}

func (e *Error) Error() string {
	switch e.Section {
	case "header", "section table":
		return fmt.Sprintf("archive: %s: %v", e.Section, e.Err)
	}
	return fmt.Sprintf("archive: section %q: %v", e.Section, e.Err)
}

func fail(section, format string, args ...any) error {
	return &Error{Section: section, Err: fmt.Errorf(format, args...)}
}

// Section is one named run of bytes to write. Construct it with Bytes,
// Float64s or Float32s.
type Section struct {
	Name  string
	Len   int64
	write func(w io.Writer) error // writes exactly Len bytes; called twice
}

// Bytes is a section holding b.
func Bytes(name string, b []byte) Section {
	return Section{Name: name, Len: int64(len(b)), write: func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}}
}

// Float64s is a section holding v as little-endian IEEE 754 values. On a
// little-endian host it is written from v's own bytes.
func Float64s(name string, v []float64) Section {
	return floats(name, v, 8, func(b []byte, x float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(x)) })
}

// Float32s is Float64s for float32 values.
func Float32s(name string, v []float32) Section {
	return floats(name, v, 4, func(b []byte, x float32) { binary.LittleEndian.PutUint32(b, math.Float32bits(x)) })
}

func floats[T float32 | float64](name string, v []T, size int, put func([]byte, T)) Section {
	return Section{Name: name, Len: int64(len(v) * size), write: func(w io.Writer) error {
		if len(v) == 0 {
			return nil
		}
		if littleEndian {
			_, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*size))
			return err
		}
		const chunk = 4096 // values per write
		buf := make([]byte, chunk*size)
		for i := 0; i < len(v); i += chunk {
			part := v[i:min(i+chunk, len(v))]
			for j, x := range part {
				put(buf[j*size:], x)
			}
			if _, err := w.Write(buf[:len(part)*size]); err != nil {
				return err
			}
		}
		return nil
	}}
}

// counter passes writes through and counts them.
type counter struct {
	w io.Writer
	n int64
}

func (c *counter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func alignUp(n int64) int64 { return (n + Align - 1) &^ (Align - 1) }

// Write writes a container of secs, in order, behind magic. Only the header
// and the table are buffered: each section's checksum is taken in a first
// pass over its bytes, then the section is written straight to w.
func Write(w io.Writer, magic [4]byte, secs ...Section) error {
	if len(secs) > MaxSections {
		return fmt.Errorf("archive: %d sections, at most %d", len(secs), MaxSections)
	}
	head := make([]byte, headerSize+entrySize*len(secs))
	copy(head, magic[:])
	binary.LittleEndian.PutUint32(head[4:], uint32(len(secs)))
	off := alignUp(int64(len(head)))
	seen := make(map[string]bool, len(secs))
	for i, s := range secs {
		if s.Name == "" || len(s.Name) > nameSize || seen[s.Name] {
			return fmt.Errorf("archive: section name %q is empty, longer than %d bytes or repeated", s.Name, nameSize)
		}
		seen[s.Name] = true
		h := crc32.New(castagnoli)
		c := &counter{w: h}
		if err := s.write(c); err != nil {
			return fmt.Errorf("archive: section %q: %w", s.Name, err)
		}
		if c.n != s.Len {
			return fmt.Errorf("archive: section %q wrote %d bytes, declared %d", s.Name, c.n, s.Len)
		}
		e := head[headerSize+entrySize*i:]
		copy(e[:nameSize], s.Name)
		binary.LittleEndian.PutUint32(e[12:], h.Sum32())
		binary.LittleEndian.PutUint64(e[16:], uint64(off))
		binary.LittleEndian.PutUint64(e[24:], uint64(s.Len))
		off = alignUp(off + s.Len)
	}
	binary.LittleEndian.PutUint32(head[12:], headCRC(head))
	c := &counter{w: w}
	if _, err := c.Write(head); err != nil {
		return fmt.Errorf("archive: write header: %w", err)
	}
	var zeros [Align]byte
	for i, s := range secs {
		if _, err := c.Write(zeros[:alignUp(c.n)-c.n]); err != nil {
			return fmt.Errorf("archive: section %q: %w", s.Name, err)
		}
		if err := s.write(c); err != nil {
			return fmt.Errorf("archive: section %q: %w", s.Name, err)
		}
		if want := int64(binary.LittleEndian.Uint64(head[headerSize+entrySize*i+16:])) + s.Len; c.n != want {
			return fmt.Errorf("archive: section %q ended at byte %d, want %d", s.Name, c.n, want)
		}
	}
	return nil
}

// headCRC is the header checksum: bytes [0:12) and the table after them.
func headCRC(head []byte) uint32 {
	return crc32.Update(crc32.Checksum(head[:12], castagnoli), castagnoli, head[headerSize:])
}

type entry struct {
	name     string
	crc      uint32
	off, len int64
}

// File is a verified container, held in one buffer.
type File struct {
	buf  []byte
	secs []entry
}

// Read reads a whole container from r into one buffer and verifies it: the
// header, the table and its checksum, every section's bounds, the zero
// padding between sections, and every section's checksum. size is the
// number of bytes left in r when the caller knows it (a file's length), in
// which case the buffer is allocated once, at exactly that size, after the
// table has been checked against it; a negative size means unknown, and the
// buffer then grows as the stream delivers what the table declares. The
// stream must end where the last section does.
func Read(r io.Reader, magic [4]byte, size int64) (*File, error) {
	var head [headerSize]byte
	if n, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fail("header", "truncated at %d of %d bytes", n, headerSize)
	}
	n, err := sectionCount(head[:], magic)
	if err != nil {
		return nil, err
	}
	table := make([]byte, headerSize+entrySize*n)
	copy(table, head[:])
	if got, err := io.ReadFull(r, table[headerSize:]); err != nil {
		return nil, fail("section table", "truncated at %d of %d bytes", got, entrySize*n)
	}
	secs, err := parseTable(table)
	if err != nil {
		return nil, err
	}
	end := int64(len(table))
	if len(secs) > 0 {
		end = secs[len(secs)-1].off + secs[len(secs)-1].len
	}
	grow := end
	switch {
	case size >= 0 && size < end:
		return nil, truncated(secs, size)
	case size > end:
		return nil, trailing(secs)
	case size < 0:
		grow = min(end, int64(len(table))+1<<20)
	}
	buf := make([]byte, len(table), grow)
	copy(buf, table)
	for int64(len(buf)) < end {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, int(min(end-int64(len(buf)), int64(len(buf)))))
		}
		got, err := io.ReadFull(r, buf[len(buf):min(int64(cap(buf)), end)])
		buf = buf[:len(buf)+got]
		if err != nil {
			return nil, truncated(secs, int64(len(buf)))
		}
	}
	var more [1]byte
	if m, _ := io.ReadFull(r, more[:]); m > 0 {
		return nil, trailing(secs)
	}
	return verify(buf, secs)
}

func sectionCount(head []byte, magic [4]byte) (int, error) {
	if [4]byte(head[:4]) != magic {
		return 0, fail("header", "magic % x, want % x", head[:4], magic[:])
	}
	n := binary.LittleEndian.Uint32(head[4:])
	if n > MaxSections {
		return 0, fail("section table", "%d sections, at most %d", n, MaxSections)
	}
	return int(n), nil
}

// parseTable checks the table's checksum and that the sections follow each
// other at aligned offsets without overlapping.
func parseTable(table []byte) ([]entry, error) {
	if got := binary.LittleEndian.Uint32(table[12:]); got != headCRC(table) || binary.LittleEndian.Uint32(table[8:]) != 0 {
		return nil, fail("section table", "checksum mismatch")
	}
	secs := make([]entry, (len(table)-headerSize)/entrySize)
	next := alignUp(int64(len(table)))
	for i := range secs {
		e := table[headerSize+entrySize*i:]
		name := e[:nameSize]
		for len(name) > 0 && name[len(name)-1] == 0 {
			name = name[:len(name)-1]
		}
		off, n := binary.LittleEndian.Uint64(e[16:]), binary.LittleEndian.Uint64(e[24:])
		s := entry{name: string(name), crc: binary.LittleEndian.Uint32(e[12:]), off: int64(off), len: int64(n)}
		if s.name == "" || off != uint64(next) || n > maxLen {
			return nil, fail("section table", "entry %d (%q) at offset %d, length %d; want offset %d", i, s.name, off, n, next)
		}
		for _, prev := range secs[:i] {
			if prev.name == s.name {
				return nil, fail("section table", "section %q listed twice", s.name)
			}
		}
		secs[i] = s
		next = alignUp(s.off + s.len)
	}
	return secs, nil
}

// truncated names the section a container of got bytes is cut in.
func truncated(secs []entry, got int64) error {
	for _, s := range secs {
		if got < s.off+s.len {
			return fail(s.name, "truncated at %d of %d bytes", max(got-s.off, 0), s.len)
		}
	}
	return fail("section table", "truncated") // unreachable: got < end
}

func trailing(secs []entry) error {
	if len(secs) == 0 {
		return fail("section table", "trailing bytes after an empty table")
	}
	return fail(secs[len(secs)-1].name, "trailing bytes after the section")
}

func verify(buf []byte, secs []entry) (*File, error) {
	pos := int64(headerSize + entrySize*len(secs))
	for _, s := range secs {
		for _, b := range buf[pos:s.off] {
			if b != 0 {
				return nil, fail(s.name, "nonzero padding before the section")
			}
		}
		if crc32.Checksum(buf[s.off:s.off+s.len], castagnoli) != s.crc {
			return nil, fail(s.name, "checksum mismatch")
		}
		pos = s.off + s.len
	}
	return &File{buf: buf, secs: secs}, nil
}

// Has reports whether the container holds a section called name.
func (f *File) Has(name string) bool {
	_, err := f.Bytes(name)
	return err == nil
}

// Bytes returns the bytes of section name, which alias the File's buffer.
func (f *File) Bytes(name string) ([]byte, error) {
	for _, s := range f.secs {
		if s.name == name {
			return f.buf[s.off : s.off+s.len : s.off+s.len], nil
		}
	}
	return nil, fail(name, "missing")
}

// Float64s returns section name as float64 values. On a little-endian host
// they alias the File's buffer; elsewhere they are decoded into a new array.
func (f *File) Float64s(name string) ([]float64, error) {
	return floatsOf(f, name, 8, func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) })
}

// Float32s is Float64s for float32 values.
func (f *File) Float32s(name string) ([]float32, error) {
	return floatsOf(f, name, 4, func(b []byte) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(b)) })
}

func floatsOf[T float32 | float64](f *File, name string, size int, get func([]byte) T) ([]T, error) {
	b, err := f.Bytes(name)
	if err != nil {
		return nil, err
	}
	if len(b)%size != 0 {
		return nil, fail(name, "%d bytes is not a whole number of %d-byte values", len(b), size)
	}
	n := len(b) / size
	if n == 0 {
		return nil, nil
	}
	if littleEndian && uintptr(unsafe.Pointer(&b[0]))%uintptr(size) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
	}
	v := make([]T, n)
	for i := range v {
		v[i] = get(b[i*size:])
	}
	return v, nil
}
