package relation

import "fmt"

// Join computes the natural join r ⋈ s on their shared attributes with
// a classic one-pair-at-a-time hash join: build a hash index over the
// smaller side keyed by the shared attributes, probe with the larger.
// The output schema is r's attributes followed by s's non-shared
// attributes. If the schemas are disjoint the result is the cross
// product. This is the binary-join building block of the baseline
// plans the paper compares WCOJ algorithms against.
func Join(r, s *Relation) (*Relation, error) {
	shared := sharedAttrs(r, s)
	// Output schema.
	outAttrs := append([]string(nil), r.Attrs()...)
	var sExtra []int
	for j, a := range s.Attrs() {
		if r.HasAttr(a) {
			continue
		}
		outAttrs = append(outAttrs, a)
		sExtra = append(sExtra, j)
	}
	b := NewBuilder(fmt.Sprintf("(%s⋈%s)", r.Name(), s.Name()), outAttrs...)

	if len(shared) == 0 {
		// Cross product.
		row := make(Tuple, len(outAttrs))
		var rRow, sRow Tuple
		for i := 0; i < r.Len(); i++ {
			rRow = r.Tuple(i, rRow)
			copy(row, rRow)
			for k := 0; k < s.Len(); k++ {
				sRow = s.Tuple(k, sRow)
				for x, j := range sExtra {
					row[len(rRow)+x] = sRow[j]
				}
				if err := b.Add(row...); err != nil {
					return nil, err
				}
			}
		}
		return b.Build(), nil
	}

	// Build on the smaller side, probe with the larger; emit rows in
	// the fixed output schema either way.
	build, probe := s, r
	if r.Len() < s.Len() {
		build, probe = r, s
	}
	ix := NewHashIndex(build, shared)
	probeKey := make([]int, len(shared))
	for i, a := range shared {
		probeKey[i] = probe.AttrIndex(a)
	}
	// Column positions: for each output attribute, where it comes from
	// in (r-row, s-row).
	rPos := make([]int, len(outAttrs))
	sPos := make([]int, len(outAttrs))
	for o, a := range outAttrs {
		rPos[o] = r.AttrIndex(a)
		sPos[o] = s.AttrIndex(a)
	}
	key := make(Tuple, len(shared))
	row := make(Tuple, len(outAttrs))
	var pRow, bRow Tuple
	for i := 0; i < probe.Len(); i++ {
		pRow = probe.Tuple(i, pRow)
		for x, j := range probeKey {
			key[x] = pRow[j]
		}
		for _, m := range ix.Probe(key) {
			bRow = build.Tuple(int(m), bRow)
			// Assemble the output row: prefer r's copy, fall back to s.
			var rRow, sRow Tuple
			if probe == r {
				rRow, sRow = pRow, bRow
			} else {
				rRow, sRow = bRow, pRow
			}
			for o := range outAttrs {
				if rPos[o] >= 0 {
					row[o] = rRow[rPos[o]]
				} else {
					row[o] = sRow[sPos[o]]
				}
			}
			if err := b.Add(row...); err != nil {
				return nil, err
			}
		}
	}
	return b.Build(), nil
}
