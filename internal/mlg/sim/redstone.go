package sim

import "repro/internal/mlg/world"

// Redstone-like logic simulation. Components evaluate on redstone ticks
// (every second game tick). Power propagates through wire with decay 15→0;
// torches invert the block beneath them; repeaters forward power along
// their facing after a configurable delay; observers emit one-tick pulses
// when the watched block changes; pistons push (and harvest) blocks.
//
// These are the "logic-gate constructs" of the Lag workload (§3.3.1) and
// the drive circuitry of the Farm constructs (Table 3).

// isReceivingPower reports whether any neighbour powers the position.
// Directional components (repeater, observer) only power along their facing.
func (x *exec) isReceivingPower(p world.Pos) bool {
	return x.incomingPower(p) > 0
}

// incomingPower returns the strongest power level delivered to p.
func (x *exec) incomingPower(p world.Pos) uint8 {
	var s world.Stencil
	x.wc.Stencil(p, &s)
	var best uint8
	for d, nb := range s.Nb {
		if !s.NbLoaded[d] {
			continue
		}
		np := world.Direction(d).Move(p)
		var pw uint8
		switch nb.ID {
		case world.Repeater:
			// Directional: powers only the block it faces.
			if nb.Facing().Move(np) == p {
				pw = nb.PowerOutput()
			}
		case world.Observer:
			// An observer watches its facing and outputs from its back.
			if nb.Facing().Opposite().Move(np) == p {
				pw = nb.PowerOutput()
			}
		case world.RedstoneTorch:
			// A torch does not power the block it is attached to (the block
			// directly beneath it) — otherwise every torch would switch its
			// own base and oscillate.
			if world.Direction(d) != world.DirUp {
				pw = nb.PowerOutput()
			}
		case world.RedstoneWire:
			w := nb.PowerOutput()
			if w > 0 {
				pw = w - 1
			}
		default:
			pw = nb.PowerOutput()
		}
		if pw > best {
			best = pw
		}
	}
	return best
}

// updateWire recomputes a wire's power from its strongest input and
// propagates the change to its neighbours via the world-change cascade.
func (x *exec) updateWire(p world.Pos, b world.Block) {
	if x.e.cfg.RedstoneBatch {
		// Bump the per-tick evaluation count (checked in apply).
		if v := x.wireSeen[p]; v>>2 == x.e.tick {
			x.wireSeen[p] = v + 1
		} else {
			x.wireSeen[p] = x.e.tick << 2
		}
	}
	want := x.incomingPower(p)
	if want != b.Meta&0x0F {
		x.setBlock(p, world.Block{ID: world.RedstoneWire, Meta: want & 0x0F})
	}
}

// updateTorch inverts the power state of the block the torch stands on:
// powered base → torch off, unpowered base → torch lit.
func (x *exec) updateTorch(p world.Pos, b world.Block) {
	baseP := p.Down()
	basePowered := x.incomingPower(baseP) > 0
	lit := b.Meta&1 != 0
	if basePowered == lit {
		nb := b
		if basePowered {
			nb.Meta &^= 1
		} else {
			nb.Meta |= 1
		}
		x.setBlock(p, nb)
	}
}

// updateRepeater samples the repeater's input (the side opposite its
// facing); a change schedules the output flip after the repeater's delay.
func (x *exec) updateRepeater(p world.Pos, b world.Block) {
	inputPos := b.Facing().Opposite().Move(p)
	inPowered := x.powerAt(inputPos, p)
	if inPowered != b.RepeaterPowered() {
		// The output change is latched now and applied after the delay,
		// regardless of what the input does in between — otherwise two
		// repeaters firing in the same tick could eat a travelling pulse.
		var v uint8
		if inPowered {
			v = 1
		}
		x.scheduleVal(p, b.RepeaterDelay()*2, updateRepeaterFire, v) // delay in redstone ticks
	}
}

// fireRepeater applies the latched output flip.
func (x *exec) fireRepeater(p world.Pos, val uint8) {
	b, loaded := x.wc.BlockIfLoaded(p)
	if !loaded || b.ID != world.Repeater {
		return
	}
	x.counters.RedstoneOps++
	want := val != 0
	if want != b.RepeaterPowered() {
		x.setBlock(p, b.WithRepeaterPowered(want))
	}
}

// powerAt reports whether the block at p emits or conducts power toward the
// consumer at dst.
func (x *exec) powerAt(p, dst world.Pos) bool {
	b, loaded := x.wc.BlockIfLoaded(p)
	if !loaded {
		return false
	}
	switch b.ID {
	case world.Repeater:
		return b.Facing().Move(p) == dst && b.PowerOutput() > 0
	case world.Observer:
		return b.Facing().Opposite().Move(p) == dst && b.PowerOutput() > 0
	default:
		return b.PowerOutput() > 0
	}
}

// pulseObserver starts an observer's one-redstone-tick output pulse; the
// pulse itself is a block change, so observers watching this observer fire
// in turn — the feedback loop lag machines exploit.
func (x *exec) pulseObserver(p world.Pos, b world.Block) {
	if b.ObserverPulsing() {
		return
	}
	x.setBlock(p, b.WithObserverPulse(true))
	x.schedule(p, 2, updateObserverClear)
}

// updatePiston extends a powered piston and schedules retraction of an
// unpowered one. Extension into a harvestable block breaks it and drops an
// item — the harvest mechanism of the Farm constructs.
func (x *exec) updatePiston(p world.Pos, b world.Block) {
	powered := x.isReceivingPower(p)
	switch {
	case powered && !b.PistonExtended():
		x.extendPiston(p, b)
	case !powered && b.PistonExtended():
		x.schedule(p, 2, updatePistonRetract)
	}
}

func (x *exec) extendPiston(p world.Pos, b world.Block) {
	head := b.Facing().Move(p)
	target, loaded := x.wc.BlockIfLoaded(head)
	if !loaded {
		return
	}
	switch {
	case target.IsAir():
		// Plain extension.
	case isHarvestable(target.ID):
		// Breaking a block drops its item. Harvesting kelp resets the age
		// of the stalk below so the farm keeps producing (as players do by
		// replanting).
		x.counters.BlockRemoves++
		x.spawnItem(head, harvestDrop(target.ID))
		if target.ID == world.Kelp {
			if below, _ := x.wc.BlockIfLoaded(head.Down()); below.ID == world.Kelp {
				x.setBlock(head.Down(), world.Block{ID: world.Kelp, Meta: 0})
			}
		}
	case target.IsSolid() && !immovable(target.ID):
		// Push one block if there is room behind it.
		dest := b.Facing().Move(head)
		db, ok := x.wc.BlockIfLoaded(dest)
		if !ok || !db.IsAir() {
			return
		}
		x.counters.BlockAdds++
		x.counters.BlockRemoves++
		x.setBlock(dest, target)
	default:
		return
	}
	x.counters.BlockAdds++
	x.setBlock(head, world.B(world.PistonHead).WithFacing(b.Facing()))
	x.setBlock(p, b.WithPistonExtended(true))
}

func (x *exec) retractPiston(p world.Pos, b world.Block) {
	x.counters.RedstoneOps++
	head := b.Facing().Move(p)
	if hb, _ := x.wc.BlockIfLoaded(head); hb.ID == world.PistonHead {
		x.counters.BlockRemoves++
		x.setBlock(head, world.B(world.Air))
	}
	x.setBlock(p, b.WithPistonExtended(false))
}

// isHarvestable lists blocks a piston push breaks into an item drop.
func isHarvestable(id world.BlockID) bool {
	switch id {
	case world.Kelp, world.Wheat, world.Stone, world.Cobblestone, world.Ice,
		world.Leaves, world.Sapling:
		return true
	default:
		return false
	}
}

// harvestDrop maps a broken block to the item it drops.
func harvestDrop(id world.BlockID) world.BlockID {
	if id == world.Stone {
		return world.Cobblestone
	}
	return id
}

// immovable lists blocks pistons cannot push.
func immovable(id world.BlockID) bool {
	switch id {
	case world.Bedrock, world.Obsidian, world.Piston, world.PistonHead,
		world.Observer, world.Hopper, world.Chest, world.Dropper, world.Spawner:
		return true
	default:
		return false
	}
}

// igniteTNT converts a TNT block into a primed TNT entity with the standard
// 80-tick fuse (4 seconds).
func (x *exec) igniteTNT(p world.Pos) {
	b, loaded := x.wc.BlockIfLoaded(p)
	if !loaded || b.ID != world.TNT {
		return
	}
	x.counters.BlockRemoves++
	x.setBlock(p, world.B(world.Air))
	x.spawnPrimedTNT(p, 80)
}
