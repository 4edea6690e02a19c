package shard_test

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/shard"
)

// TestGatewayForwardsDownstreamByteForByte: the gateway relays a shard's
// downstream stream without decoding it, so a chunk-heavy, entity-heavy
// stream — including a frame too large for the pooled read buffer —
// reaches the client exactly as the shard wrote it.
func TestGatewayForwardsDownstreamByteForByte(t *testing.T) {
	login := &protocol.LoginSuccess{PlayerID: 5, X: 8.5, Y: 11, Z: 8.5}
	stream := []protocol.Packet{
		// ~50 kB: large, but still inside the pooled read buffer.
		&protocol.ChunkData{ChunkX: 2, ChunkZ: 0, Data: bytes.Repeat([]byte{7, 0, 3, 1, 9}, 10<<10)},
		&protocol.WorldStream{Data: bytes.Repeat([]byte{0xC3}, 70<<10)},
		&protocol.ChunkData{ChunkX: 1, ChunkZ: -1, Data: bytes.Repeat([]byte{0, 4, 1, 0}, 256)},
	}
	for i := int32(0); i < 300; i++ {
		stream = append(stream,
			&protocol.SpawnEntity{EntityID: i, Kind: 2, X: float64(i), Y: 11, Z: 3},
			&protocol.EntityMove{EntityID: i, X: float64(i) + 0.5, Y: 11, Z: 3},
			&protocol.EntityMoveRel{EntityID: i, DX: 4, DY: -1, DZ: 0},
			&protocol.BlockChange{X: i, Y: 10, Z: -i, BlockID: 1},
			&protocol.DestroyEntity{EntityID: i},
		)
	}
	stream = append(stream, &protocol.TimeUpdate{Tick: 42})
	want := protocol.AppendFrame(nil, login)
	for _, p := range stream {
		want = protocol.AppendFrame(want, p)
	}

	shardLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shardLn.Close()
	finished := make(chan struct{})
	defer close(finished)
	shardErr := make(chan error, 1)
	go func() {
		nc, err := shardLn.Accept()
		if err != nil {
			shardErr <- err
			return
		}
		defer nc.Close()
		c := protocol.NewConn(nc)
		for i := 0; i < 2; i++ { // handshake, login
			if _, _, err := c.ReadPacket(); err != nil {
				shardErr <- err
				return
			}
		}
		c.BeginBatch()
		_, err = c.WritePacket(login)
		for _, p := range stream {
			if err == nil {
				_, err = c.WritePacket(p)
			}
		}
		if ferr := c.FlushBatch(); err == nil {
			err = ferr
		}
		shardErr <- err
		<-finished // hold the leg open until the client has read everything
	}()

	g, err := shard.NewGateway(shard.GatewayConfig{Map: shard.Map{}, Addrs: []string{shardLn.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	gwLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gwLn.Close()
	go g.Serve(gwLn)

	raw, err := net.Dial("tcp", gwLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	client := protocol.NewConn(raw)
	if _, err := client.WritePacket(&protocol.Handshake{Version: protocol.ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.WritePacket(&protocol.Login{Name: "relay"}); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	got := make([]byte, len(want))
	if _, err := io.ReadFull(raw, got); err != nil {
		t.Fatalf("client read %d-byte stream: %v", len(want), err)
	}
	if err := <-shardErr; err != nil {
		t.Fatalf("shard side: %v", err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		t.Fatalf("client stream differs from what the shard wrote at byte %d of %d", i, len(want))
	}
}
