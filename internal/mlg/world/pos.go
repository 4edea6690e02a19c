package world

import "fmt"

// Pos is an integer block position in the world.
type Pos struct {
	X, Y, Z int
}

// String formats the position as (x,y,z).
func (p Pos) String() string { return fmt.Sprintf("(%d,%d,%d)", p.X, p.Y, p.Z) }

// Compare orders positions by Y, then Z, then X, in the style of
// ChunkPos.Compare.
func (p Pos) Compare(q Pos) int {
	a, b := p.Y, q.Y
	if a == b {
		a, b = p.Z, q.Z
	}
	if a == b {
		a, b = p.X, q.X
	}
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Add returns p offset by (dx, dy, dz).
func (p Pos) Add(dx, dy, dz int) Pos { return Pos{p.X + dx, p.Y + dy, p.Z + dz} }

// Up, Down, North, South, East, West return the six face-adjacent positions.
func (p Pos) Up() Pos    { return p.Add(0, 1, 0) }
func (p Pos) Down() Pos  { return p.Add(0, -1, 0) }
func (p Pos) North() Pos { return p.Add(0, 0, -1) }
func (p Pos) South() Pos { return p.Add(0, 0, 1) }
func (p Pos) East() Pos  { return p.Add(1, 0, 0) }
func (p Pos) West() Pos  { return p.Add(-1, 0, 0) }

// Neighbors6 returns the six face-adjacent positions, the propagation set
// used by terrain-simulation rules (§2.3: each rule iteration informs the
// adjacent terrain).
func (p Pos) Neighbors6() [6]Pos {
	return [6]Pos{p.Up(), p.Down(), p.North(), p.South(), p.East(), p.West()}
}

// NeighborsHorizontal returns the four horizontally adjacent positions,
// used by fluid spread and wire propagation.
func (p Pos) NeighborsHorizontal() [4]Pos {
	return [4]Pos{p.North(), p.South(), p.East(), p.West()}
}

// Dist2 returns the squared Euclidean distance to q.
func (p Pos) Dist2(q Pos) int {
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	return dx*dx + dy*dy + dz*dz
}

// ManhattanDist returns the L1 distance to q, the admissible heuristic used
// by entity pathfinding.
func (p Pos) ManhattanDist(q Pos) int {
	return abs(p.X-q.X) + abs(p.Y-q.Y) + abs(p.Z-q.Z)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Direction indexes the six block faces. It is the facing stored in the
// metadata of directional components (pistons, observers, repeaters point
// along the horizontal directions in this engine).
type Direction uint8

// Directions.
const (
	DirUp Direction = iota
	DirDown
	DirNorth
	DirSouth
	DirEast
	DirWest
)

// Offset returns the unit offset of the direction.
func (d Direction) Offset() (dx, dy, dz int) {
	switch d {
	case DirUp:
		return 0, 1, 0
	case DirDown:
		return 0, -1, 0
	case DirNorth:
		return 0, 0, -1
	case DirSouth:
		return 0, 0, 1
	case DirEast:
		return 1, 0, 0
	default:
		return -1, 0, 0
	}
}

// Opposite returns the facing in the reverse direction.
func (d Direction) Opposite() Direction {
	switch d {
	case DirUp:
		return DirDown
	case DirDown:
		return DirUp
	case DirNorth:
		return DirSouth
	case DirSouth:
		return DirNorth
	case DirEast:
		return DirWest
	default:
		return DirEast
	}
}

// Move returns p shifted one block along d.
func (d Direction) Move(p Pos) Pos {
	dx, dy, dz := d.Offset()
	return p.Add(dx, dy, dz)
}
