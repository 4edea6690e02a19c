package sim

import (
	"math"

	"repro/internal/mlg/world"
)

// ExplosionRadius is the blast radius of primed TNT, matching Minecraft's 4.
const ExplosionRadius = 4.0

// itemDropChance is the probability an explosion-destroyed block drops an
// item entity.
const itemDropChance = 0.30

// Explode processes one explosion centred at p: blocks inside the blast
// sphere (except blast-resistant ones) are destroyed, destroyed TNT blocks
// chain-ignite with a short random fuse, and a fraction of destroyed blocks
// drop item entities. It returns the number of blocks destroyed.
//
// Chained TNT is the paper's TNT workload (§3.3.1): "when a large section
// of TNT is activated, the MLG must perform a large number of both
// entity-collision and physics calculations". The short chain fuses make
// hundreds of TNT entities explode within the same few ticks, which is what
// produces the multi-second tick spikes of Figure 9.
func (e *Engine) Explode(p world.Pos, radius float64) (int, Counters) {
	before := e.counters
	e.counters.Explosions++
	r := int(math.Ceil(radius))
	r2 := radius * radius
	destroyed := 0

	// Bulk mutation: suppress the per-change neighbour cascade and queue a
	// single perimeter update pass afterwards. (Vanilla behaves similarly:
	// explosions batch their block removal.)
	e.suppress = true
	for dy := -r; dy <= r; dy++ {
		for dz := -r; dz <= r; dz++ {
			for dx := -r; dx <= r; dx++ {
				if float64(dx*dx+dy*dy+dz*dz) > r2 {
					continue
				}
				if e.blastCell(p.Add(dx, dy, dz)) {
					destroyed++
				}
			}
		}
	}
	e.suppress = false

	// One follow-up update wave around the crater so fluids flow in, sand
	// collapses, and wires depower. Sampling the crater shell keeps this
	// proportional to the surface, like vanilla's neighbour updates.
	for dy := -r; dy <= r; dy++ {
		for dz := -r; dz <= r; dz++ {
			for dx := -r; dx <= r; dx++ {
				d2 := float64(dx*dx + dy*dy + dz*dz)
				if d2 > r2 || d2 < (radius-1.5)*(radius-1.5) {
					continue // only the shell
				}
				e.root.queueNeighbors(p.Add(dx, dy, dz))
			}
		}
	}
	return destroyed, e.counters.Sub(before)
}

// MergedExplosions processes a batch of explosions. With the PaperMC
// ExplosionMerge optimization, overlapping blast volumes are deduplicated
// before scanning, so n clustered explosions cost far less than n separate
// scans; without it each explosion is processed independently.
func (e *Engine) MergedExplosions(centers []world.Pos, radius float64) (int, Counters) {
	before := e.counters
	if !e.cfg.ExplosionMerge || len(centers) < 2 {
		total := 0
		for _, c := range centers {
			n, _ := e.Explode(c, radius)
			total += n
		}
		return total, e.counters.Sub(before)
	}

	// Deduplicate the union volume: visit each affected block once.
	r := int(math.Ceil(radius))
	r2 := radius * radius
	seen := make(map[world.Pos]struct{}, len(centers)*32)
	destroyed := 0
	e.counters.Explosions += len(centers)
	e.suppress = true
	for _, c := range centers {
		for dy := -r; dy <= r; dy++ {
			for dz := -r; dz <= r; dz++ {
				for dx := -r; dx <= r; dx++ {
					if float64(dx*dx+dy*dy+dz*dz) > r2 {
						continue
					}
					q := c.Add(dx, dy, dz)
					if _, dup := seen[q]; dup {
						continue
					}
					seen[q] = struct{}{}
					if e.blastCell(q) {
						destroyed++
					}
				}
			}
		}
	}
	e.suppress = false
	// A single perimeter pass for the whole batch.
	for _, c := range centers {
		e.root.queueNeighbors(c)
	}
	return destroyed, e.counters.Sub(before)
}

// blastCell scans one block of a blast volume: an owned, loaded block that
// is neither air nor blast resistant is destroyed, and rolls a chain fuse
// (TNT) or an item drop. It reports whether q was destroyed.
func (e *Engine) blastCell(q world.Pos) bool {
	e.counters.ExplosionScan++
	// Unowned blocks are scanned but not destroyed (shard mode): scan
	// counters sum across shards to the single-shard value, and a shard
	// never mutates a chunk it does not own.
	if !e.owns(q) {
		return false
	}
	b, loaded := e.wc.BlockIfLoaded(q)
	if !loaded || b.IsAir() || blastResistant(b.ID) {
		return false
	}
	e.counters.ExplosionBlocks++
	e.counters.BlockRemoves++
	e.w.SetBlock(q, world.B(world.Air))
	// Fuse and drop rolls come from the destroyed block's own per-tick
	// stream (streams.go), so chain spread is independent of detonation
	// order and shard layout.
	st := blockStream(e.seed, q, e.tick)
	switch {
	case b.ID == world.TNT:
		// Chain ignition with a randomized fuse up to three seconds; the
		// spread keeps the chain burning for tens of seconds (as in the
		// community videos the paper cites) instead of detonating the
		// whole cuboid at once.
		e.ents.SpawnPrimedTNT(q, 2+st.Intn(88))
	case st.Float64() < itemDropChance:
		e.ents.SpawnItem(q, b.ID)
	}
	return true
}

// blastResistant lists blocks explosions cannot destroy.
func blastResistant(id world.BlockID) bool {
	return id == world.Bedrock || id == world.Obsidian
}
