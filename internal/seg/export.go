package seg

import "qdcbir/internal/store"

// Persistence export: a Snapshot dumps exactly the inputs Restore consumes,
// so save/load is Restore(SealedInputs(), MemInput(), ...) — symmetric by
// construction. The exported stores and structures are the live ones
// (segments are immutable, so sharing is safe), and so are the memtable
// rows up to the snapshot's row count: the writer only appends past them.

// SealedInputs returns one SealedInput per sealed segment, tombstones
// expressed as global IDs.
func (s *Snapshot) SealedInputs() []SealedInput {
	out := make([]SealedInput, len(s.segs))
	for i, sv := range s.segs {
		var tombs []int
		for _, local := range sv.tomb.AppendIndices(nil) {
			tombs = append(tombs, sv.seg.ids[local])
		}
		out[i] = SealedInput{
			IDs:        sv.seg.ids,
			Store:      sv.seg.st,
			Structure:  sv.seg.rfs,
			Tombstoned: tombs,
		}
	}
	return out
}

// MemInput returns the snapshot's memtable image: base ID, the row-major
// rows at the DB's precision (tombstoned rows included, preserving slot
// arithmetic), and the tombstoned slots.
func (s *Snapshot) MemInput() MemInput {
	in := MemInput{BaseID: s.mem.baseID, Tombstoned: s.mem.tomb.AppendIndices(nil)}
	n := s.mem.rows * s.mem.dim
	if s.mem.prec == store.Float32 {
		in.Rows32 = s.mem.data32[:n:n]
	} else {
		in.Rows = s.mem.data[:n:n]
	}
	return in
}
