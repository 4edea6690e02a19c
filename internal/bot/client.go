package bot

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
)

// Client runs one bot over a real TCP connection: the Yardstick-style
// emulation used against live servers (cmd/botswarm).
type Client struct {
	bot  *Bot
	conn *protocol.Conn

	// paused stops the read loop from draining the socket — a frozen client
	// whose kernel receive buffer fills, the peer-fault case the server's
	// async writers must survive. readDelay (nanoseconds) throttles a slow
	// reader instead of stopping it.
	paused    atomic.Bool
	readDelay atomic.Int64

	mu     sync.Mutex
	probes []Probe
	done   chan struct{}
	once   sync.Once
}

// Connect dials the server, performs the handshake and login, and returns a
// running client. The read loop runs until Close or a connection error.
func Connect(addr string, cfg Config) (*Client, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if cfg.ReadBuffer > 0 {
		if tc, ok := raw.(*net.TCPConn); ok {
			tc.SetReadBuffer(cfg.ReadBuffer)
		}
	}
	conn := protocol.NewConn(raw)
	if _, err := conn.LogIn(cfg.Name); err != nil {
		conn.Close()
		return nil, fmt.Errorf("bot %s: %w", cfg.Name, err)
	}

	c := &Client{bot: New(cfg), conn: conn, done: make(chan struct{})}
	go c.readLoop()
	go c.actLoop()
	return c, nil
}

// readLoop consumes server traffic, completing probes on self-echoed chats
// and answering keep-alives.
func (c *Client) readLoop() {
	for {
		for c.paused.Load() {
			select {
			case <-c.done:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
		if d := c.readDelay.Load(); d > 0 {
			select {
			case <-c.done:
				return
			case <-time.After(time.Duration(d)):
			}
		}
		pkt, _, err := c.conn.ReadPacket()
		if err != nil {
			c.Close()
			return
		}
		switch p := pkt.(type) {
		case *protocol.Chat:
			if p.Sender == c.bot.Name() && p.SentUnixNano > 0 {
				sent := time.Unix(0, p.SentUnixNano)
				c.mu.Lock()
				c.probes = append(c.probes, Probe{
					Bot: c.bot.Name(), SentAt: sent, RTT: time.Since(sent),
				})
				c.mu.Unlock()
			}
		case *protocol.KeepAlive:
			c.conn.WritePacket(p)
		case *protocol.Disconnect:
			c.Close()
			return
		}
	}
}

// actLoop emits the bot's behaviour at the game-tick cadence.
func (c *Client) actLoop() {
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case now := <-t.C:
			for _, pkt := range c.bot.Actions(now) {
				if _, err := c.conn.WritePacket(pkt); err != nil {
					c.Close()
					return
				}
			}
		}
	}
}

// PauseReads freezes the client's read loop: the socket stops draining, the
// kernel receive buffer fills, and the server's outbound path for this peer
// backs up — the stalled-peer fault the swarm benchmark injects.
func (c *Client) PauseReads() { c.paused.Store(true) }

// SetReadDelay throttles the read loop to one packet per d — a slow (but not
// stalled) consumer. Zero removes the throttle.
func (c *Client) SetReadDelay(d time.Duration) { c.readDelay.Store(int64(d)) }

// Done is closed when the client terminates (Close, server disconnect, or a
// connection error).
func (c *Client) Done() <-chan struct{} { return c.done }

// Probes returns the response-time measurements collected so far.
func (c *Client) Probes() []Probe {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Probe(nil), c.probes...)
}

// Close terminates the client.
func (c *Client) Close() {
	c.once.Do(func() {
		close(c.done)
		c.conn.Close()
	})
}
