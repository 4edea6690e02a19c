package shard

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/mlg/entity"
	"repro/internal/protocol"
)

// Gateway fronts a shard cluster for ordinary players: clients speak the
// normal protocol to one address, and the gateway proxies each connection
// to whichever shard owns the player's position. Routing is re-evaluated
// on every PlayerMove — when a player walks across a shard boundary the
// gateway tears the upstream leg down and re-logs the player into the new
// owner, invisibly to the client (the replacement LoginSuccess is
// swallowed; position is client-authoritative, so the first forwarded move
// snaps the new shard to the player's real location). An upstream leg that
// dies without the client hanging up marks the shard dead, fires the
// failover callback, and retries until a standby answers.
type Gateway struct {
	cfg GatewayConfig

	mu    sync.Mutex
	addrs []string
	down  []bool
}

// GatewayConfig assembles a gateway.
type GatewayConfig struct {
	// Map is the shard assignment; Addrs[i] is shard i's player address.
	Map   Map
	Addrs []string
	// OnShardDown fires once per detected shard death, outside the
	// gateway's locks; a failover manager restores a standby and calls
	// SetAddr when it is serving.
	OnShardDown func(shard int)
	// RetryEvery paces re-dial attempts toward a dead shard (default
	// 100 ms).
	RetryEvery time.Duration
}

// NewGateway validates the topology and returns a gateway ready to Serve.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Addrs) != cfg.Map.Count() {
		return nil, fmt.Errorf("shard: %d addrs for %d shards", len(cfg.Addrs), cfg.Map.Count())
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = 100 * time.Millisecond
	}
	return &Gateway{cfg: cfg, addrs: append([]string(nil), cfg.Addrs...), down: make([]bool, cfg.Map.Count())}, nil
}

// SetAddr rewires shard i to a new address — the standby takeover step —
// and clears its down flag so routing resumes.
func (g *Gateway) SetAddr(i int, addr string) {
	g.mu.Lock()
	g.addrs[i] = addr
	g.down[i] = false
	g.mu.Unlock()
}

// addr returns shard i's current address.
func (g *Gateway) addr(i int) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.addrs[i]
}

// markDown flips shard i's down flag; returns true if this call was the
// transition (the caller then fires OnShardDown exactly once).
func (g *Gateway) markDown(i int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.down[i] {
		return false
	}
	g.down[i] = true
	return true
}

// Serve accepts player connections until the listener closes.
func (g *Gateway) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go g.handle(conn)
	}
}

// upstream is one gateway→shard leg for a single player.
type upstream struct {
	shard int
	conn  *protocol.Conn
}

// dialTimeout bounds each upstream dial.
const dialTimeout = 2 * time.Second

// dialShard logs the player into shard i and returns the leg plus the
// shard's LoginSuccess.
func (g *Gateway) dialShard(i int, name string) (*upstream, *protocol.LoginSuccess, error) {
	nc, err := net.DialTimeout("tcp", g.addr(i), dialTimeout)
	if err != nil {
		return nil, nil, err
	}
	c := protocol.NewConn(nc)
	ls, err := c.LogIn(name)
	if err != nil {
		c.Close()
		return nil, nil, fmt.Errorf("shard %d: %w", i, err)
	}
	return &upstream{shard: i, conn: c}, ls, nil
}

// dialOwner keeps dialing the shard owning pos — following failover
// re-addressing and falling back to retries — until it answers or the
// client is gone.
func (g *Gateway) dialOwner(shard int, name string, clientGone <-chan struct{}) (*upstream, *protocol.LoginSuccess, error) {
	for {
		up, ls, err := g.dialShard(shard, name)
		if err == nil {
			return up, ls, nil
		}
		if g.markDown(shard) && g.cfg.OnShardDown != nil {
			go g.cfg.OnShardDown(shard)
		}
		select {
		case <-clientGone:
			return nil, nil, fmt.Errorf("client gone while shard %d down", shard)
		case <-time.After(g.cfg.RetryEvery):
		}
	}
}

func (g *Gateway) handle(raw net.Conn) {
	client := protocol.NewConn(raw)
	defer client.Close()

	// The client's handshake and login terminate at the gateway; each
	// upstream leg replays them.
	pkt, _, err := client.ReadPacket()
	if err != nil {
		return
	}
	hs, ok := pkt.(*protocol.Handshake)
	if !ok || hs.Version != protocol.ProtocolVersion {
		client.WritePacket(&protocol.Disconnect{Reason: "bad handshake"})
		return
	}
	pkt, _, err = client.ReadPacket()
	if err != nil {
		return
	}
	login, ok := pkt.(*protocol.Login)
	if !ok {
		client.WritePacket(&protocol.Disconnect{Reason: "login expected"})
		return
	}

	clientGone := make(chan struct{})
	defer close(clientGone)

	// Spawn placement is identical on every shard, so probe shard 0 (or
	// the first shard standing in for it), then move to the owner.
	up, ls, err := g.dialOwner(0, login.Name, clientGone)
	if err != nil {
		return
	}
	if owner := g.cfg.Map.ShardOfBlock(entity.Vec3{X: ls.X, Y: ls.Y, Z: ls.Z}.BlockPos()); owner != up.shard {
		up.conn.Close()
		if up, ls, err = g.dialOwner(owner, login.Name, clientGone); err != nil {
			return
		}
	}
	if _, err := client.WritePacket(ls); err != nil {
		up.conn.Close()
		return
	}

	// clientWrites serializes writes into the client socket: the
	// downstream pump changes identity on every re-route, and a torn frame
	// would desynchronize the client's stream forever.
	var clientWrites sync.Mutex
	var upMu sync.Mutex // guards up swaps during re-route

	// Downstream pump: forward whole frames off the upstream leg to the
	// client as raw bytes — nothing downstream is routed on, so nothing is
	// decoded. WriteFrame copies the frame before the next read reuses its
	// buffer. Returns when its leg dies (re-route or shard death).
	pump := func(u *upstream) {
		for {
			f, _, err := u.conn.ReadFrame()
			if err != nil {
				return
			}
			clientWrites.Lock()
			_, err = client.WriteFrame(f)
			clientWrites.Unlock()
			if err != nil {
				return
			}
		}
	}
	go pump(up)

	// reroute replaces the upstream leg, replaying the login on the new
	// shard. The replacement LoginSuccess is swallowed: the client keeps
	// its original player ID, and the entity IDs it sees switch to the new
	// shard's — acceptable because clients treat entity IDs as opaque
	// per-session handles.
	reroute := func(dest int) error {
		next, _, err := g.dialOwner(dest, login.Name, clientGone)
		if err != nil {
			return err
		}
		upMu.Lock()
		up.conn.Close()
		up = next
		upMu.Unlock()
		go pump(next)
		return nil
	}

	// Upstream pump: forward client traffic, watching PlayerMove for
	// boundary crossings and re-routing when the owner changes.
	for {
		pkt, _, err := client.ReadPacket()
		if err != nil {
			return
		}
		if mv, ok := pkt.(*protocol.PlayerMove); ok {
			if dest := g.cfg.Map.ShardOfBlock(entity.Vec3{X: mv.X, Y: mv.Y, Z: mv.Z}.BlockPos()); dest != up.shard {
				if err := reroute(dest); err != nil {
					return
				}
			}
		}
		upMu.Lock()
		_, err = up.conn.WritePacket(pkt)
		shardIdx := up.shard
		upMu.Unlock()
		if err != nil {
			// The leg died under us: shard death, not a client action. Mark
			// it, let failover bring a standby up, and re-route to the same
			// index. The dropped packet is not replayed — client packets are
			// position updates and probes, superseded by the next ones.
			if g.markDown(shardIdx) && g.cfg.OnShardDown != nil {
				go g.cfg.OnShardDown(shardIdx)
			}
			if err := reroute(shardIdx); err != nil {
				return
			}
		}
	}
}
