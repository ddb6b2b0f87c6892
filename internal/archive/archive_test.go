package archive

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"
)

var testMagic = [4]byte{'T', 'E', 'S', 'T'}

func sampleSections() (f64 []float64, f32 []float32, raw []byte, secs []Section) {
	f64 = []float64{1.5, -2, math.Inf(1), math.SmallestNonzeroFloat64, 0}
	f32 = []float32{3.25, -0.5, math.MaxFloat32}
	raw = []byte("a small section of odd length")
	return f64, f32, raw, []Section{Bytes("raw", raw), Float64s("f64", f64), Bytes("empty", nil), Float32s("f32", f32)}
}

func written(t *testing.T, secs ...Section) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, testMagic, secs...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoundTrip writes sections of every kind and reads them back at their
// aligned offsets, through a reader that tells its length and one that
// does not (and hands out a few bytes at a time).
func TestRoundTrip(t *testing.T) {
	f64, f32, raw, secs := sampleSections()
	b := written(t, secs...)
	if !bytes.HasPrefix(b, testMagic[:]) {
		t.Fatalf("container opens with % x", b[:4])
	}
	for name, f := range map[string]func() (*File, error){
		"sized":   func() (*File, error) { return Read(bytes.NewReader(b), testMagic, int64(len(b))) },
		"unsized": func() (*File, error) { return Read(iotest.HalfReader(bytes.NewReader(b)), testMagic, -1) },
	} {
		t.Run(name, func(t *testing.T) {
			f, err := f()
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range f.secs {
				if s.off%Align != 0 {
					t.Errorf("section %q at offset %d", s.name, s.off)
				}
			}
			if got, err := f.Bytes("raw"); err != nil || !bytes.Equal(got, raw) {
				t.Errorf("raw = %q, %v", got, err)
			}
			if got, err := f.Float64s("f64"); err != nil || !reflect.DeepEqual(got, f64) {
				t.Errorf("f64 = %v, %v", got, err)
			}
			if got, err := f.Float32s("f32"); err != nil || !reflect.DeepEqual(got, f32) {
				t.Errorf("f32 = %v, %v", got, err)
			}
			if got, err := f.Bytes("empty"); err != nil || len(got) != 0 || !f.Has("empty") {
				t.Errorf("empty = %q, %v", got, err)
			}
			if _, err := f.Bytes("absent"); err == nil || !strings.Contains(err.Error(), `section "absent": missing`) || f.Has("absent") {
				t.Errorf("absent section: %v", err)
			}
			if _, err := f.Float64s("raw"); err == nil {
				t.Error("29 bytes read as float64 values")
			}
		})
	}
}

// TestFloatsAliasTheBuffer: on a little-endian host, float sections are
// views of the buffer the container was read into; on the portable path
// they are decoded into arrays of their own, and the bytes written are the
// same either way.
func TestFloatsAliasTheBuffer(t *testing.T) {
	if !littleEndian {
		t.Skip("big-endian host")
	}
	_, _, _, secs := sampleSections()
	b := written(t, secs...)
	f, err := Read(bytes.NewReader(b), testMagic, int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := f.Float64s("f64")
	sec, _ := f.Bytes("f64")
	if unsafe.Pointer(&v[0]) != unsafe.Pointer(&sec[0]) {
		t.Error("float64 section copied on a little-endian host")
	}

	littleEndian = false
	defer func() { littleEndian = true }()
	if portable := written(t, secs...); !bytes.Equal(portable, b) {
		t.Fatal("the portable writer wrote different bytes")
	}
	f, err = Read(bytes.NewReader(b), testMagic, int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	w, _ := f.Float64s("f64")
	sec, _ = f.Bytes("f64")
	if !reflect.DeepEqual(v, w) || unsafe.Pointer(&w[0]) == unsafe.Pointer(&sec[0]) {
		t.Error("the portable reader did not decode a copy of the same values")
	}
}

// TestWriteRefusesBadSections: names must be non-empty, short and unique.
func TestWriteRefusesBadSections(t *testing.T) {
	for _, secs := range [][]Section{
		{Bytes("", nil)},
		{Bytes("thirteen-byte", nil)},
		{Bytes("a", nil), Bytes("a", nil)},
	} {
		if err := Write(&bytes.Buffer{}, testMagic, secs...); err == nil {
			t.Errorf("sections %q accepted", secs[0].Name)
		}
	}
}

// TestReadNamesTheDamage cuts and flips a container and checks the error
// names the part that is damaged.
func TestReadNamesTheDamage(t *testing.T) {
	_, _, _, secs := sampleSections()
	b := written(t, secs...)
	read := func(b []byte) error {
		_, err := Read(bytes.NewReader(b), testMagic, int64(len(b)))
		return err
	}
	section := func(err error) string {
		var e *Error
		if !errors.As(err, &e) {
			t.Fatalf("error %v is not an *Error", err)
		}
		return e.Section
	}
	f, _ := Read(bytes.NewReader(b), testMagic, int64(len(b)))
	last := f.secs[len(f.secs)-1]
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"short header", b[:10], "header"},
		{"foreign magic", append([]byte("NOPE"), b[4:]...), "header"},
		{"short table", b[:40], "section table"},
		{"table flip", flip(b, 20), "section table"},
		{"padding flip", flip(b, int(f.secs[0].off+f.secs[0].len)), "f64"},
		{"section flip", flip(b, int(last.off)), "f32"},
		{"cut in the last section", b[:len(b)-1], "f32"},
		{"trailing byte", append(append([]byte(nil), b...), 0), "f32"},
	}
	for _, tc := range cases {
		if got := section(read(tc.data)); got != tc.want {
			t.Errorf("%s: error names %q, want %q", tc.name, got, tc.want)
		}
	}
	// A stream of unknown length is cut the same way.
	_, err := Read(bytes.NewReader(b[:len(b)-1]), testMagic, -1)
	if got := section(err); got != "f32" || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("unsized cut: %v", err)
	}
}

func flip(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0x10
	return c
}
