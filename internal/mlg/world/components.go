package world

// LabelComponents labels the connected components of a chunk-position set:
// two keys connect when their Chebyshev distance is at most link. Every
// value of set must be unassigned (-1) on entry; on return each key holds
// its component id, visit has been called once per key in discovery order,
// and the component count is returned.
//
// The terrain engine's dirty-chunk partition labels its set here, with its
// per-component bookkeeping in visit. Component ids depend on map
// iteration order and are not canonical — callers needing a deterministic
// order sort by a canonical key (e.g. the minimal member) afterwards.
func LabelComponents(set map[ChunkPos]int32, link int32, visit func(comp int32, cp ChunkPos)) int32 {
	const unassigned = -1
	var stack []ChunkPos
	comps := int32(0)
	for cp, id := range set {
		if id != unassigned {
			continue
		}
		comp := comps
		comps++
		set[cp] = comp
		stack = append(stack[:0], cp)
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			visit(comp, c)
			for dz := -link; dz <= link; dz++ {
				for dx := -link; dx <= link; dx++ {
					if dx == 0 && dz == 0 {
						continue
					}
					n := ChunkPos{X: c.X + dx, Z: c.Z + dz}
					if nid, ok := set[n]; ok && nid == unassigned {
						set[n] = comp
						stack = append(stack, n)
					}
				}
			}
		}
	}
	return comps
}
