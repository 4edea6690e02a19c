// Package world implements the voxel terrain substrate of the MLG engine:
// block types, chunks, lazy terrain generation from a seeded noise field, a
// column-based lighting model, and world serialization (used to report the
// Table 2 world sizes).
//
// The world is the Game State (component 3 of the paper's operational model,
// Figure 4): terrain state that the player handler, terrain simulation, and
// entities all read and write, and whose modifications drive the
// environment-based workloads that are the paper's subject.
package world

import "fmt"

// BlockID enumerates the block types the engine simulates. The set covers
// everything the paper's four workload worlds need: natural terrain, fluids,
// TNT, the redstone-like logic components the Lag machine and farms are made
// of, and crops for growth simulation.
type BlockID uint8

// Block types.
const (
	Air BlockID = iota
	Bedrock
	Stone
	Cobblestone
	Dirt
	Grass
	Sand
	Gravel
	Water // Meta: fluid level, 0 = source, 1..7 = flowing
	Lava  // Meta: fluid level like Water
	Wood
	Leaves
	TNT
	Obsidian
	Glass
	RedstoneWire  // Meta: power level 0..15
	RedstoneTorch // Meta: 1 when lit
	RedstoneBlock // constant power source
	Repeater      // Meta: low 2 bits delay-1 (1..4 ticks), bit 2 powered
	Observer      // Meta: bit 0 pulse-armed, emits on neighbour change
	Piston        // Meta: bit 0 extended
	PistonHead
	Lever // Meta: 1 when on
	Hopper
	Chest
	Dropper
	Kelp  // Meta: growth stage 0..15
	Wheat // Meta: growth stage 0..7
	Farmland
	Sapling
	SlimeBlock
	Ice
	Torch
	Spawner // mob spawner block used by entity farms

	// NumBlockIDs is the number of defined block types.
	NumBlockIDs
)

var blockNames = [NumBlockIDs]string{
	"air", "bedrock", "stone", "cobblestone", "dirt", "grass", "sand",
	"gravel", "water", "lava", "wood", "leaves", "tnt", "obsidian", "glass",
	"redstone_wire", "redstone_torch", "redstone_block", "repeater",
	"observer", "piston", "piston_head", "lever", "hopper", "chest",
	"dropper", "kelp", "wheat", "farmland", "sapling", "slime_block", "ice",
	"torch", "spawner",
}

// String returns the block type's name.
func (id BlockID) String() string {
	if int(id) < len(blockNames) {
		return blockNames[id]
	}
	return fmt.Sprintf("block(%d)", uint8(id))
}

// Block is one voxel: a type plus per-type metadata (fluid level, redstone
// power, growth stage, ...).
type Block struct {
	ID   BlockID
	Meta uint8
}

// B is shorthand for Block{ID: id}.
func B(id BlockID) Block { return Block{ID: id} }

// IsAir reports whether the block is empty space.
func (b Block) IsAir() bool { return b.ID == Air }

// IsFluid reports whether the block is water or lava.
func (b Block) IsFluid() bool { return b.ID == Water || b.ID == Lava }

// IsSolid reports whether the block blocks movement and supports other
// blocks. Air, fluids, wires, torches, crops and similar decorations are not
// solid.
func (b Block) IsSolid() bool {
	switch b.ID {
	case Air, Water, Lava, RedstoneWire, RedstoneTorch, Torch, Kelp, Wheat,
		Sapling, Lever, Repeater, Observer:
		return false
	default:
		return b.ID < NumBlockIDs
	}
}

// IsGravityAffected reports whether the block falls when unsupported (the
// terrain-physics rule of §2.2.2).
func (b Block) IsGravityAffected() bool { return b.ID == Sand || b.ID == Gravel }

// IsGrowable reports whether random ticks can change the block: the crops
// and plants the simulation's growth rule advances (sim's applyGrowth).
func (b Block) IsGrowable() bool {
	return b.ID == Wheat || b.ID == Kelp || b.ID == Sapling
}

// IsRedstoneComponent reports whether the block participates in the
// logic-circuit simulation.
func (b Block) IsRedstoneComponent() bool {
	switch b.ID {
	case RedstoneWire, RedstoneTorch, RedstoneBlock, Repeater, Observer,
		Piston, PistonHead, Lever:
		return true
	default:
		return false
	}
}

// IsOpaque reports whether the block stops sky light, which drives the
// column-lighting recomputation cost.
func (b Block) IsOpaque() bool {
	switch b.ID {
	case Air, Glass, Water, RedstoneWire, RedstoneTorch, Torch, Kelp, Wheat,
		Sapling, Lever, Repeater, Observer, Ice:
		return false
	default:
		return b.IsSolid()
	}
}

// PowerOutput returns the redstone power level (0..15) this block emits to
// its neighbours.
func (b Block) PowerOutput() uint8 {
	switch b.ID {
	case RedstoneBlock:
		return 15
	case RedstoneTorch:
		if b.Meta&1 != 0 {
			return 15
		}
	case Lever:
		if b.Meta&1 != 0 {
			return 15
		}
	case RedstoneWire:
		return b.Meta & 0x0F
	case Repeater:
		if b.Meta&repeaterPoweredBit != 0 {
			return 15
		}
	case Observer:
		if b.Meta&observerPulseBit != 0 {
			return 15
		}
	}
	return 0
}

// Metadata bit layouts for the logic components. Directional components
// (repeater, observer, piston, dropper) store their facing in bits 3-5,
// leaving the low bits for component state.
const (
	repeaterPoweredBit = 1 << 2
	observerPulseBit   = 1 << 0
	pistonExtendedBit  = 1 << 0
	facingShift        = 3
	facingMask         = 0x7 << facingShift
)

// Facing returns the direction a directional component points (the direction
// a piston pushes, an observer watches, a repeater outputs).
func (b Block) Facing() Direction {
	return Direction((b.Meta & facingMask) >> facingShift)
}

// WithFacing returns the block with its facing set.
func (b Block) WithFacing(d Direction) Block {
	b.Meta = (b.Meta &^ facingMask) | (uint8(d) << facingShift)
	return b
}

// RepeaterDelay returns the repeater's configured delay in game ticks (1-4).
func (b Block) RepeaterDelay() int { return int(b.Meta&0x03) + 1 }

// WithRepeaterPowered returns the block with its powered bit set or cleared.
func (b Block) WithRepeaterPowered(on bool) Block {
	if on {
		b.Meta |= repeaterPoweredBit
	} else {
		b.Meta &^= repeaterPoweredBit
	}
	return b
}

// RepeaterPowered reports the repeater's output state.
func (b Block) RepeaterPowered() bool { return b.Meta&repeaterPoweredBit != 0 }

// ObserverPulsing reports whether an observer is emitting its one-tick pulse.
func (b Block) ObserverPulsing() bool { return b.Meta&observerPulseBit != 0 }

// WithObserverPulse returns the observer with its pulse bit set or cleared.
func (b Block) WithObserverPulse(on bool) Block {
	if on {
		b.Meta |= observerPulseBit
	} else {
		b.Meta &^= observerPulseBit
	}
	return b
}

// PistonExtended reports whether a piston is extended.
func (b Block) PistonExtended() bool { return b.Meta&pistonExtendedBit != 0 }

// WithPistonExtended returns the piston with its extended bit set or cleared.
func (b Block) WithPistonExtended(on bool) Block {
	if on {
		b.Meta |= pistonExtendedBit
	} else {
		b.Meta &^= pistonExtendedBit
	}
	return b
}
