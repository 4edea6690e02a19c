// Command mlgserver runs a standalone MLG game server over real TCP: the
// system under test as an ordinary network service. Connect Yardstick-style
// bots with cmd/botswarm, or any client speaking the wire protocol.
//
// Usage:
//
//	mlgserver [-addr :25565] [-flavor Minecraft] [-world Control] [-seed N]
//	          [-save-dir DIR] [-snapshot-every N] [-snapshot-full-every N]
//
// The server runs in wall-clock mode: tick durations are measured, not
// modelled, so this binary also serves as the real-hardware baseline for
// comparing the virtual-time engine against actual execution.
//
// With -save-dir the server becomes crash-safe: it snapshots the complete
// world/sim/entity/player state every -snapshot-every ticks (atomic
// write-to-temp + fsync + rename, checksummed, full snapshots interleaved
// with incrementals), restores the newest good snapshot on start — falling
// back past torn or corrupt files — and flushes a final snapshot on
// SIGINT/SIGTERM after the tick loop drains.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/env"
	"repro/internal/metrics"
	"repro/internal/mlg/persist"
	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", ":25565", "listen address")
		flavorName = flag.String("flavor", "Minecraft", "MLG flavor: Minecraft, Forge, PaperMC")
		worldName  = flag.String("world", "Control", "workload world: Control, Farm, TNT, Lag, Players")
		seed       = flag.Int64("seed", world.PaperControlSeed, "world seed")
		saveDir    = flag.String("save-dir", "", "snapshot directory (empty = persistence off)")
		snapEvery  = flag.Int("snapshot-every", 200, "snapshot cadence in ticks (with -save-dir)")
		snapFull   = flag.Int("snapshot-full-every", 10, "every Nth snapshot is full, the rest incremental")

		shardSpec  = flag.String("shard", "", "run as shard i/N of a chunk-split world, e.g. 0/2 (needs -splits, -shard-addr, -shard-peers)")
		gatewayFlg = flag.Bool("gateway", false, "run as a player gateway routing to shard processes (needs -splits, -shards)")
		splitsFlag = flag.String("splits", "", "ascending chunk-X split points, comma-separated (N-1 entries for N shards)")
		shardAddr  = flag.String("shard-addr", "", "this shard's inter-shard session listen address")
		shardPeers = flag.String("shard-peers", "", "session addresses of all shards, comma-separated and index-aligned")
		shardsFlag = flag.String("shards", "", "player addresses of all shards, comma-separated (gateway mode)")
	)
	flag.Parse()

	if *gatewayFlg {
		runGateway(*addr, *splitsFlag, *shardsFlag)
		return
	}

	flavor, err := server.FlavorByName(*flavorName)
	if err != nil {
		log.Fatal(err)
	}
	kind, err := workload.ByName(*worldName)
	if err != nil {
		log.Fatal(err)
	}

	w := workload.NewWorld(kind, *seed)
	cfg := server.DefaultConfig(flavor)

	// Shard mode: this process owns one chunk range of a split world and
	// exchanges halo mirrors + entity handoffs with its peers after every
	// tick, in lockstep over TCP sessions.
	var (
		shardIdx, shardN int
		smap             shard.Map
	)
	if *shardSpec != "" {
		if _, err := fmt.Sscanf(*shardSpec, "%d/%d", &shardIdx, &shardN); err != nil || shardIdx < 0 || shardIdx >= shardN {
			log.Fatalf("bad -shard %q, want i/N", *shardSpec)
		}
		splits, err := parseSplits(*splitsFlag)
		if err != nil {
			log.Fatal(err)
		}
		smap = shard.Map{Splits: splits}
		if err := smap.Validate(); err != nil {
			log.Fatal(err)
		}
		if smap.Count() != shardN {
			log.Fatalf("-splits %q describes %d shards, -shard says %d", *splitsFlag, smap.Count(), shardN)
		}
		cfg.Shard = server.ShardConfig{Count: shardN, Index: shardIdx, Owns: smap.Owns(shardIdx)}
	}

	// With a save directory the server owns a snapshotter (Config.Persist):
	// it snapshots at the tick tail on the configured cadence, and the
	// after-tick hook surfaces write failures.
	var st *persist.Store
	if *saveDir != "" {
		var err error
		if st, err = persist.NewStore(*saveDir); err != nil {
			log.Fatal(err)
		}
		cfg.Persist = server.PersistConfig{Store: st, Every: *snapEvery, FullEvery: *snapFull}
	}
	var s *server.Server
	var ep *shard.Endpoint
	ex := telemetry.NewExternalizer() // feeds the periodic stats line
	cfg.Hooks.AfterTick = func(rec server.TickRecord) {
		ex.Observe(rec)
		if ep != nil {
			if err := ep.Exchange(rec.Tick); err != nil {
				log.Printf("shard exchange: %v", err)
				s.Stop()
			}
		}
		if st != nil {
			if err := s.Snapshotter().Err(); err != nil {
				log.Printf("snapshot: %v", err)
			}
		}
	}
	s = server.New(w, cfg, nil, env.RealClock{}) // wall-clock mode

	// Restore the newest good snapshot instead of installing the workload
	// from scratch; the store skips torn or corrupt files and falls back to
	// the last one whose checksums verify.
	restored := false
	if st != nil {
		switch res, err := st.LoadLatest(); {
		case err == nil:
			for _, skip := range res.Skipped {
				log.Printf("skipping damaged snapshot %s", skip)
			}
			if err := s.RestoreSnapshot(res); err != nil {
				log.Fatalf("restore %s: %v", res.Path, err)
			}
			log.Printf("restored tick %d from %s", res.Tick, res.Path)
			restored = true
		case errors.Is(err, persist.ErrNoSnapshot):
			log.Printf("no snapshot in %s, starting fresh", *saveDir)
		default:
			log.Fatal(err)
		}
	}
	if !restored {
		if err := workload.Install(s, kind.DefaultSpec()); err != nil {
			log.Fatal(err)
		}
		workload.Arm(s, kind.DefaultSpec())
	}

	// Link the inter-shard mesh before the tick loop starts: every shard
	// blocks here until all its peers are up, so tick 1 already runs in
	// lockstep.
	if *shardSpec != "" {
		ep = shard.NewEndpoint(s, smap, shardIdx)
		sln, err := net.Listen("tcp", *shardAddr)
		if err != nil {
			log.Fatal(err)
		}
		peers := strings.Split(*shardPeers, ",")
		if err := shard.ConnectMesh(ep, sln, peers, 60*time.Second); err != nil {
			log.Fatal(err)
		}
		log.Printf("shard %d/%d linked (splits %v)", shardIdx, shardN, smap.Splits)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%s serving %s world on %s", flavor.Name, kind, ln.Addr())

	go func() {
		if err := s.Serve(ln); err != nil {
			log.Printf("serve: %v", err)
		}
	}()
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		s.Run()
	}()

	// Periodic operational stats via the metric externalizer: the last
	// telemetry.Window ticks' mean and p95.
	go func() {
		for {
			time.Sleep(10 * time.Second)
			if ex.Ticks() < telemetry.Window {
				continue
			}
			sum := metrics.Summarize(ex.RecentMS())
			log.Printf("players=%d ticks=%d mean=%.1fms p95=%.1fms overloaded=%d",
				s.PlayerCount(), ex.Ticks(), sum.Mean, sum.P95, ex.OverloadedTicks())
		}
	}()

	// Graceful shutdown: stop accepting, let the in-flight tick finish (Run
	// returns only between ticks), then flush one final snapshot so a
	// restart resumes exactly where the process left off.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nshutting down")
	s.Stop()
	<-runDone
	if sn := s.Snapshotter(); sn != nil {
		// Let any autosave in flight land, then write the final snapshot
		// here: an async Snapshot is skipped while the writer is busy.
		sn.Close()
		if p, err := s.Save(st); err != nil {
			log.Printf("final snapshot: %v", err)
		} else {
			log.Printf("final snapshot written: %s", p)
		}
	}
	ln.Close()
}

// runGateway serves the -gateway mode: a pure player-routing proxy in
// front of already-running shard processes.
func runGateway(addr, splitsFlag, shardsFlag string) {
	splits, err := parseSplits(splitsFlag)
	if err != nil {
		log.Fatal(err)
	}
	m := shard.Map{Splits: splits}
	addrs := strings.Split(shardsFlag, ",")
	gw, err := shard.NewGateway(shard.GatewayConfig{
		Map:   m,
		Addrs: addrs,
		OnShardDown: func(i int) {
			log.Printf("shard %d down; retrying until a standby answers on %s", i, addrs[i])
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("gateway on %s routing %d shards (splits %v)", ln.Addr(), m.Count(), m.Splits)
	if err := gw.Serve(ln); err != nil {
		log.Fatal(err)
	}
}

// parseSplits parses the -splits flag: ascending chunk-X boundaries.
func parseSplits(s string) ([]int32, error) {
	if s == "" {
		return nil, nil
	}
	var out []int32
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad -splits entry %q: %v", part, err)
		}
		out = append(out, int32(v))
	}
	return out, nil
}
