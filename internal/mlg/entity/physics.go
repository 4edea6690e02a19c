package entity

import "repro/internal/mlg/world"

// Physics constants, per tick, in blocks.
const (
	gravity      = 0.08
	drag         = 0.98
	groundFric   = 0.6
	fluidPush    = 0.06
	buoyancy     = 0.04
	terminalFall = 3.0
)

// stepPhysics integrates one tick of motion with terrain collision: gravity,
// drag, axis-separated movement against solid blocks, and fluid push — the
// entity-collision workload the TNT world stresses (§3.3.1). It runs on a
// tick context so the serial loop and the pool workers share one
// implementation: terrain reads go through the context's chunk cache and
// collision counts through the context's counters.
func (c *tickCtx) stepPhysics(e *Entity) {
	// Fluid interaction: buoyancy plus the stream push farms use to carry
	// item drops toward hoppers.
	feet := e.Pos.BlockPos()
	if b, ok := c.blockIfLoaded(feet); ok && b.IsFluid() {
		e.Vel.Y += buoyancy
		if e.Vel.Y > 0.1 {
			e.Vel.Y = 0.1
		}
		flow := c.flowDirection(feet, b)
		e.Vel = e.Vel.Add(flow.Scale(fluidPush))
	} else {
		e.Vel.Y -= gravity
		if e.Vel.Y < -terminalFall {
			e.Vel.Y = -terminalFall
		}
	}

	// Axis-separated movement with collision.
	e.OnGround = false
	e.Pos.X = c.moveAxis(e, e.Pos.X, e.Vel.X, axisX)
	e.Pos.Z = c.moveAxis(e, e.Pos.Z, e.Vel.Z, axisZ)
	e.Pos.Y = c.moveAxis(e, e.Pos.Y, e.Vel.Y, axisY)

	// Drag and ground friction.
	e.Vel.X *= drag
	e.Vel.Z *= drag
	e.Vel.Y *= drag
	if e.OnGround {
		e.Vel.X *= groundFric
		e.Vel.Z *= groundFric
	}
}

type axis int

const (
	axisX axis = iota
	axisY
	axisZ
)

// moveAxis advances one coordinate by delta, stopping at the first solid
// block. Entities are modelled as a 1×2 column (feet plus head).
func (c *tickCtx) moveAxis(e *Entity, cur, delta float64, ax axis) float64 {
	if delta == 0 {
		return cur
	}
	next := cur + delta
	probe := e.Pos
	switch ax {
	case axisX:
		probe.X = next
	case axisY:
		probe.Y = next
	case axisZ:
		probe.Z = next
	}
	c.counters.Collisions++
	if c.collides(probe) {
		switch ax {
		case axisY:
			if delta < 0 {
				e.OnGround = true
			}
			e.Vel.Y = 0
			return cur
		case axisX:
			e.Vel.X = 0
		case axisZ:
			e.Vel.Z = 0
		}
		return cur
	}
	return next
}

// collides reports whether an entity column at pos intersects solid terrain.
func (c *tickCtx) collides(pos Vec3) bool {
	feet := pos.BlockPos()
	head := feet.Up()
	if b, ok := c.blockIfLoaded(feet); ok && b.IsSolid() {
		return true
	}
	if b, ok := c.blockIfLoaded(head); ok && b.IsSolid() {
		return true
	}
	return false
}

// flowDirection returns the horizontal direction fluid at p flows: toward
// the adjacent fluid cell with the highest level number (thinner = further
// downstream), or toward an adjacent drop.
func (c *tickCtx) flowDirection(p world.Pos, b world.Block) Vec3 {
	level := int(b.Meta)
	var dir Vec3
	best := level
	for _, n := range p.NeighborsHorizontal() {
		nb, ok := c.blockIfLoaded(n)
		if !ok {
			continue
		}
		// Downstream: same fluid with higher level, or air over a drop.
		if nb.ID == b.ID && int(nb.Meta) > best {
			best = int(nb.Meta)
			dir = Vec3{X: float64(n.X - p.X), Z: float64(n.Z - p.Z)}
		} else if nb.IsAir() {
			if below, ok2 := c.blockIfLoaded(n.Down()); ok2 && (below.IsAir() || below.IsFluid()) {
				dir = Vec3{X: float64(n.X - p.X), Z: float64(n.Z - p.Z)}
				best = 99
			}
		}
	}
	return dir
}
