// Command shardctl exercises a sharded deployment end to end and exits
// nonzero when any check fails — the CI shard-smoke entry point.
//
// Usage:
//
//	shardctl [-bots 50] [-ticks 200] [-kill-at 100] [-takeover-within 40]
//	         [-split 16] [-world Farm] [-tick-every 10ms]
//
// The smoke builds a 2-shard cluster in-process (chunk columns split at
// -split), serves each shard on its own loopback TCP listener, fronts them
// with the player gateway, and connects -bots random-walk bots whose
// wander area straddles the shard boundary, so routing, halo mirrors,
// handoffs and boundary re-routes all carry live traffic. At -kill-at
// ticks the second shard is killed the hard way — its server abandoned,
// its listener closed, its inter-shard links dropped — and the smoke then
// asserts that failover (standby restores the newest snapshot, replays the
// gap, relinks, and takes the shard's address back over at the gateway)
// completes within -takeover-within ticks, that the cluster's exchange
// never faulted, and that the bots survived the takeover without their
// gateway connections dying.
//
// Both shards run on the real clock, so each sleeps out its own 50 ms tick
// budget inside its Tick. The shards tick at the same time, so a cluster
// tick takes one budget; -tick-every is an extra pause between cluster
// ticks on top of it.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/bot"
	"repro/internal/env"
	"repro/internal/mlg/persist"
	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
	"repro/internal/shard"
	"repro/internal/workload"
)

func main() {
	var (
		bots      = flag.Int("bots", 50, "swarm size")
		ticks     = flag.Int("ticks", 200, "total cluster ticks")
		killAt    = flag.Int("kill-at", 100, "tick at which shard 1 is killed")
		within    = flag.Int("takeover-within", 40, "ticks allowed for standby takeover")
		split     = flag.Int("split", 16, "chunk-X split between the two shards")
		worldName = flag.String("world", "Farm", "workload world")
		tickEvery = flag.Duration("tick-every", 10*time.Millisecond, "extra pause between cluster ticks, on top of the shards' 50 ms tick budget")
	)
	flag.Parse()
	if err := run(*bots, *ticks, *killAt, *within, int32(*split), *worldName, *tickEvery); err != nil {
		log.Printf("shard-smoke: FAIL: %v", err)
		os.Exit(1)
	}
	log.Printf("shard-smoke: PASS")
}

func run(bots, ticks, killAt, within int, split int32, worldName string, tickEvery time.Duration) error {
	kind, err := workload.ByName(worldName)
	if err != nil {
		return err
	}
	spec := kind.DefaultSpec()
	smap := shard.Map{Splits: []int32{split}}

	// Per-shard snapshot stores: the failover path restores from these.
	stores := make([]*persist.Store, smap.Count())
	for i := range stores {
		dir, err := os.MkdirTemp("", fmt.Sprintf("shardctl-%d-", i))
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if stores[i], err = persist.NewStore(dir); err != nil {
			return err
		}
	}

	cluster, err := shard.NewCluster(shard.ClusterConfig{
		Map: smap,
		Build: func(i int, owns func(world.ChunkPos) bool) (*server.Server, error) {
			w := workload.NewWorld(kind, world.PaperControlSeed)
			cfg := server.DefaultConfig(server.Vanilla)
			cfg.Shard = server.ShardConfig{Count: smap.Count(), Index: i, Owns: owns}
			// Sync snapshots every 20 ticks: the failover restore point is
			// never more than a second of virtual time behind the kill.
			cfg.Persist = server.PersistConfig{Store: stores[i], Every: 20, Sync: true}
			return server.New(w, cfg, nil, env.RealClock{}), nil
		},
		Install: func(s *server.Server, i int) error {
			if err := workload.Install(s, spec); err != nil {
				return err
			}
			workload.Arm(s, spec)
			return nil
		},
		Stores: stores,
	})
	if err != nil {
		return err
	}

	// Each shard serves players on its own loopback listener; the gateway
	// fronts them on one address.
	listeners := make([]net.Listener, smap.Count())
	addrs := make([]string, smap.Count())
	serveShard := func(i int) error {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
		s := cluster.Shard(i)
		go s.Serve(ln)
		return nil
	}
	for i := 0; i < smap.Count(); i++ {
		if err := serveShard(i); err != nil {
			return err
		}
	}

	// Failover wiring: the gateway reports a dead shard; the tick loop
	// performs the restore between ticks (the cluster is not tick-safe to
	// mutate from another goroutine) and hands the new address back.
	shardDown := make(chan int, smap.Count())
	gw, err := shard.NewGateway(shard.GatewayConfig{
		Map:         smap,
		Addrs:       addrs,
		OnShardDown: func(i int) { shardDown <- i },
		RetryEvery:  20 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go gw.Serve(gln)
	log.Printf("gateway on %s, shards %v, split at chunk X=%d", gln.Addr(), addrs, split)

	// A few warmup ticks before bots connect, like every harness.
	for i := 0; i < 30; i++ {
		cluster.Tick()
	}

	// Bots: random walks straddling the boundary (block X = split*16), so
	// a share of them keeps crossing shards through the whole run.
	clients := make([]*bot.Client, 0, bots)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	boundaryX := float64(split) * world.ChunkSize
	for i := 0; i < bots; i++ {
		c, err := bot.Connect(gln.Addr().String(), bot.Config{
			Name:        fmt.Sprintf("smoke-%03d", i),
			Behavior:    bot.RandomWalk,
			AreaOriginX: boundaryX - 16,
			AreaOriginZ: 8,
			AreaSide:    32,
			BaseY:       40,
			Seed:        int64(i + 1),
		})
		if err != nil {
			return fmt.Errorf("bot %d connect: %w", i, err)
		}
		clients = append(clients, c)
	}
	log.Printf("%d bots connected through the gateway", bots)

	killTick, restoredTick := -1, -1
	for t := 0; t < ticks; t++ {
		cluster.Tick()
		time.Sleep(tickEvery)

		if t == killAt {
			log.Printf("tick %d: killing shard 1", t)
			cluster.KillShard(1)
			listeners[1].Close()
			killTick = t
		}

		// Apply failover between ticks.
		select {
		case i := <-shardDown:
			if cluster.Shard(i) != nil {
				break // stale signal from a retry burst
			}
			log.Printf("tick %d: gateway reported shard %d down; restoring standby", t, i)
			if err := cluster.RestoreShard(i); err != nil {
				return fmt.Errorf("restore shard %d: %w", i, err)
			}
			if err := serveShard(i); err != nil {
				return err
			}
			gw.SetAddr(i, addrs[i])
			restoredTick = t
			log.Printf("tick %d: shard %d standby serving on %s", t, i, addrs[i])
		default:
		}
	}

	if err := cluster.Err(); err != nil {
		return fmt.Errorf("cluster exchange fault: %w", err)
	}
	if killTick < 0 {
		return fmt.Errorf("kill tick %d never reached (ran %d ticks)", killAt, ticks)
	}
	if restoredTick < 0 {
		return fmt.Errorf("standby never took over after the kill at tick %d", killTick)
	}
	if restoredTick-killTick > within {
		return fmt.Errorf("takeover took %d ticks, budget %d", restoredTick-killTick, within)
	}
	alive := 0
	for _, c := range clients {
		select {
		case <-c.Done():
		default:
			alive++
		}
	}
	if alive < bots*9/10 {
		return fmt.Errorf("only %d/%d bots survived the takeover", alive, bots)
	}
	players := 0
	for i := 0; i < smap.Count(); i++ {
		if s := cluster.Shard(i); s != nil {
			players += s.PlayerCount()
		}
	}
	log.Printf("takeover in %d ticks; %d/%d bots alive; %d players across shards",
		restoredTick-killTick, alive, bots, players)
	return nil
}
