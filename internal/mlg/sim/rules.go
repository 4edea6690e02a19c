package sim

import (
	"repro/internal/mlg/mrand"
	"repro/internal/mlg/world"
)

// apply dispatches one queued update to the rule for the block b currently
// at the position, as the drain read it (loaded is false for an unloaded
// chunk). This is the "Process Actions / simulation rules applicable"
// loop of the operational model (Figure 4, component 5). Rules run on an
// exec context so the serial drain and the region-parallel drains share one
// implementation.
func (x *exec) apply(u scheduledUpdate, b world.Block, loaded bool) {
	if !loaded {
		return
	}
	x.counters.BlockUpdates++

	switch u.kind {
	case updateIgnite:
		x.igniteTNT(u.pos)
		return
	case updateObserverClear:
		if b.ID == world.Observer && b.ObserverPulsing() {
			x.counters.RedstoneOps++
			x.setBlock(u.pos, b.WithObserverPulse(false))
		}
		return
	case updateObserverFire:
		if b.ID == world.Observer {
			x.counters.RedstoneOps++
			x.pulseObserver(u.pos, b)
		}
		return
	case updateRepeaterFire:
		x.fireRepeater(u.pos, u.val)
		return
	case updatePistonRetract:
		if b.ID == world.Piston && b.PistonExtended() {
			x.retractPiston(u.pos, b)
		}
		return
	}

	switch b.ID {
	case world.Sand, world.Gravel:
		x.applyGravity(u.pos, b)
	case world.Water, world.Lava:
		x.counters.FluidOps++
		x.applyFluid(u.pos, b)
	case world.RedstoneWire:
		// With batching (PaperMC), a wire that already recomputed twice this
		// tick is skipped before any work is counted.
		if x.e.cfg.RedstoneBatch {
			if v := x.wireSeen[u.pos]; v>>2 == x.e.tick && v&3 >= 2 {
				return
			}
		}
		x.counters.RedstoneOps++
		x.updateWire(u.pos, b)
	case world.RedstoneTorch:
		x.counters.RedstoneOps++
		x.updateTorch(u.pos, b)
	case world.Repeater:
		x.counters.RedstoneOps++
		x.updateRepeater(u.pos, b)
	case world.Observer:
		// Plain neighbour updates do not fire observers; only a change of
		// the watched block does (updateObserverFire).
	case world.Piston:
		x.counters.RedstoneOps++
		x.updatePiston(u.pos, b)
	case world.TNT:
		if x.isReceivingPower(u.pos) {
			x.igniteTNT(u.pos)
		}
	case world.Air:
		// Cobblestone generator: an air cell touching both water and lava
		// solidifies — the stone-farm block source (Table 3).
		var water, lava bool
		for _, n := range u.pos.Neighbors6() {
			switch nb, _ := x.wc.BlockIfLoaded(n); nb.ID {
			case world.Water:
				water = true
			case world.Lava:
				lava = true
			}
		}
		if water && lava {
			x.counters.BlockAdds++
			x.setBlock(u.pos, world.B(world.Cobblestone))
		}
		// Other air updates need no rule: falling and fluid-spread
		// neighbours were queued separately.
	default:
		// Second-order update: power arriving at a solid block must
		// re-evaluate components attached to it (a torch standing on it).
		if b.IsSolid() {
			if above, loaded := x.wc.BlockIfLoaded(u.pos.Up()); loaded && above.ID == world.RedstoneTorch {
				*x.redstone = append(*x.redstone,
					scheduledUpdate{pos: u.pos.Up(), kind: updateNeighbor})
			}
		}
	}
}

// applyGravity makes unsupported sand/gravel fall one block per update, the
// terrain-physics rule of §2.2.2 ("a bridge can collapse when a player
// removes its support pillars").
func (x *exec) applyGravity(p world.Pos, b world.Block) {
	below, loaded := x.wc.BlockIfLoaded(p.Down())
	if !loaded {
		return
	}
	if below.IsAir() || below.IsFluid() {
		x.counters.BlockRemoves++
		x.counters.BlockAdds++
		x.setBlock(p, world.B(world.Air))
		x.setBlock(p.Down(), b)
	}
}

// applyFluid implements a compact cellular fluid model: fluid flows down
// into air; otherwise it spreads horizontally, increasing its level (0 =
// source .. maxFluidLevel = thinnest); flowing fluid with no feeding
// neighbour dries up. This drives the kelp-farm item streams and the
// liquid-physics workload of §2.2.2.
const maxFluidLevel = 7

func (x *exec) applyFluid(p world.Pos, b world.Block) {
	level := int(b.Meta)

	// Flowing fluid meeting the opposing fluid solidifies into cobblestone
	// (the stone-farm generator). Sources (level 0) are never consumed.
	if level > 0 {
		opposing := world.Lava
		if b.ID == world.Lava {
			opposing = world.Water
		}
		for _, n := range p.Neighbors6() {
			if nb, _ := x.wc.BlockIfLoaded(n); nb.ID == opposing {
				x.counters.BlockAdds++
				x.setBlock(p, world.B(world.Cobblestone))
				return
			}
		}
	}

	// Flowing fluid must be fed by a strictly lower-level horizontal
	// neighbour or any fluid above; otherwise it dries.
	if level > 0 {
		fed := false
		if above, _ := x.wc.BlockIfLoaded(p.Up()); above.ID == b.ID {
			fed = true
		}
		if !fed {
			for _, n := range p.NeighborsHorizontal() {
				nb, _ := x.wc.BlockIfLoaded(n)
				if nb.ID == b.ID && int(nb.Meta) < level {
					fed = true
					break
				}
			}
		}
		if !fed {
			x.counters.BlockRemoves++
			x.setBlock(p, world.B(world.Air))
			return
		}
	}

	// Flow down: falling fluid keeps level 1 (full column).
	below, loaded := x.wc.BlockIfLoaded(p.Down())
	if loaded && below.IsAir() {
		x.counters.BlockAdds++
		x.setBlock(p.Down(), world.Block{ID: b.ID, Meta: 1})
		return
	}
	if below.ID == b.ID && below.Meta > 1 {
		x.setBlock(p.Down(), world.Block{ID: b.ID, Meta: 1})
	}

	// Spread horizontally when resting on something solid.
	if level >= maxFluidLevel {
		return
	}
	if loaded && (below.IsSolid() || below.ID == b.ID) {
		for _, n := range p.NeighborsHorizontal() {
			nb, ok := x.wc.BlockIfLoaded(n)
			if !ok {
				continue
			}
			if nb.IsAir() {
				x.counters.BlockAdds++
				x.setBlock(n, world.Block{ID: b.ID, Meta: uint8(level + 1)})
			} else if nb.ID == b.ID && int(nb.Meta) > level+1 {
				x.setBlock(n, world.Block{ID: b.ID, Meta: uint8(level + 1)})
			}
		}
	}
}

// applyGrowth advances plant growth for random-ticked blocks (§2.2.2:
// "plants and trees change over time, reshaping the nearby terrain"). st is
// the sampling chunk's per-tick stream; growth rolls draw from it so their
// values are pure functions of (seed, chunk, tick, draw index).
func (x *exec) applyGrowth(p world.Pos, b world.Block, st *mrand.Source) {
	switch b.ID {
	case world.Wheat:
		if b.Meta < 7 {
			x.counters.GrowthOps++
			x.setBlock(p, world.Block{ID: world.Wheat, Meta: b.Meta + 1})
		}
	case world.Kelp:
		// Kelp extends upward through water until its stage cap.
		if b.Meta >= 15 {
			return
		}
		above, _ := x.wc.BlockIfLoaded(p.Up())
		if above.ID == world.Water {
			x.counters.GrowthOps++
			x.counters.BlockAdds++
			x.setBlock(p, world.Block{ID: world.Kelp, Meta: b.Meta + 1})
			x.setBlock(p.Up(), world.Block{ID: world.Kelp, Meta: b.Meta + 1})
		}
	case world.Sapling:
		// Saplings rarely grow into a small tree.
		if st.Intn(32) != 0 {
			return
		}
		x.counters.GrowthOps++
		for y := 1; y <= 4; y++ {
			if q := p.Add(0, y, 0); x.blockAirAt(q) {
				x.counters.BlockAdds++
				x.setBlock(q, world.B(world.Wood))
			}
		}
	}
}

func (x *exec) blockAirAt(p world.Pos) bool {
	b, loaded := x.wc.BlockIfLoaded(p)
	return loaded && b.IsAir()
}
