package seg

// Persistence export: a Snapshot dumps exactly the inputs Restore consumes,
// so save/load is Restore(SealedInputs(), MemInput(), ...) — symmetric by
// construction. The exported stores and structures are the live ones
// (segments are immutable, so sharing is safe); the memtable rows are
// copied, since the writer keeps appending to its backing.

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

// MemInput returns the snapshot's memtable image: base ID, a copy of the
// row-major float64 rows (tombstoned rows included, preserving slot
// arithmetic), and the tombstoned slots.
func (s *Snapshot) MemInput() MemInput {
	return MemInput{
		BaseID:     s.mem.baseID,
		Rows:       append([]float64(nil), s.mem.data[:s.mem.rows*s.mem.dim]...),
		Tombstoned: s.mem.tomb.AppendIndices(nil),
	}
}
