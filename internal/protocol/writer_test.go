package protocol

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// stalledPeer returns an async conn whose peer never reads, plus the peer
// end (close both via t.Cleanup). The writer goroutine will block inside its
// first socket write until the pipe is closed or a deadline fires.
func stalledPeer(t *testing.T, cfg WriterConfig) (*Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	c := NewConn(a)
	c.StartWriter(cfg)
	t.Cleanup(func() { c.Close(); b.Close() })
	return c, b
}

// waitFor polls until ok() or the deadline.
func waitFor(t *testing.T, d time.Duration, ok func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWriterOverflowReturnsBacklog(t *testing.T) {
	c, _ := stalledPeer(t, WriterConfig{MaxBatches: 2, MaxBytes: 1 << 20})

	// The first accepted batch is popped by the writer goroutine, which then
	// blocks inside the pipe write. Wait for that pop so the queue state is
	// deterministic before filling it.
	if _, err := c.WritePacket(&KeepAlive{Nonce: 1}); err != nil {
		t.Fatalf("first write: %v", err)
	}
	waitFor(t, time.Second, func() bool {
		n, _ := c.WriterQueueDepth()
		return n == 0
	}, "writer never popped the first batch")

	for i := 0; i < 2; i++ {
		if _, err := c.WritePacket(&KeepAlive{Nonce: int64(i)}); err != nil {
			t.Fatalf("fill write %d: %v", i, err)
		}
	}
	if _, err := c.WritePacket(&KeepAlive{Nonce: 9}); !errors.Is(err, ErrBacklog) {
		t.Fatalf("overflow write: got %v, want ErrBacklog", err)
	}

	// Dropped batches must not count: 3 accepted (1 in flight + 2 queued).
	if st := c.Stats(); st.MsgsOut != 3 {
		t.Fatalf("MsgsOut = %d after drop, want 3", st.MsgsOut)
	}
}

func TestWriterByteBoundReturnsBacklog(t *testing.T) {
	c, _ := stalledPeer(t, WriterConfig{MaxBatches: 64, MaxBytes: 32})

	if _, err := c.WritePacket(&KeepAlive{Nonce: 1}); err != nil {
		t.Fatalf("first write: %v", err)
	}
	waitFor(t, time.Second, func() bool {
		n, _ := c.WriterQueueDepth()
		return n == 0
	}, "writer never popped the first batch")

	// One oversized batch must trip the byte bound even with batch slots free.
	c.BeginBatch()
	for i := 0; i < 8; i++ {
		if _, err := c.WritePacket(&KeepAlive{Nonce: int64(i)}); err != nil {
			t.Fatalf("batched write: %v", err)
		}
	}
	if err := c.FlushBatch(); !errors.Is(err, ErrBacklog) {
		t.Fatalf("oversized batch: got %v, want ErrBacklog", err)
	}
}

func TestWriterBatchEnqueuesOnce(t *testing.T) {
	c, _ := stalledPeer(t, WriterConfig{MaxBatches: 64, MaxBytes: 1 << 20})

	if _, err := c.WritePacket(&KeepAlive{Nonce: 1}); err != nil {
		t.Fatalf("first write: %v", err)
	}
	waitFor(t, time.Second, func() bool {
		n, _ := c.WriterQueueDepth()
		return n == 0
	}, "writer never popped the first batch")

	c.BeginBatch()
	for i := 0; i < 5; i++ {
		if _, err := c.WritePacket(&KeepAlive{Nonce: int64(i)}); err != nil {
			t.Fatalf("batched write: %v", err)
		}
	}
	if err := c.FlushBatch(); err != nil {
		t.Fatalf("FlushBatch: %v", err)
	}
	if n, _ := c.WriterQueueDepth(); n != 1 {
		t.Fatalf("queue depth after one batch = %d, want 1", n)
	}
	if st := c.Stats(); st.MsgsOut != 6 {
		t.Fatalf("MsgsOut = %d, want 6", st.MsgsOut)
	}
}

func TestWriterDeadlineFaultIsSticky(t *testing.T) {
	c, _ := stalledPeer(t, WriterConfig{
		MaxBatches: 4, MaxBytes: 1 << 20, WriteTimeout: 20 * time.Millisecond,
	})

	if _, err := c.WritePacket(&KeepAlive{Nonce: 1}); err != nil {
		t.Fatalf("first write: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return c.WriterErr() != nil },
		"writer never faulted on the stalled peer")
	if err := c.WriterErr(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("WriterErr = %v, want deadline exceeded", err)
	}

	// Every queued batch was reclaimed and later writes report the fault.
	if n, b := c.WriterQueueDepth(); n != 0 || b != 0 {
		t.Fatalf("queue depth after fault = (%d, %d), want (0, 0)", n, b)
	}
	_, err := c.WritePacket(&KeepAlive{Nonce: 2})
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write after fault = %v, want sticky deadline error", err)
	}
	if st := c.Stats(); st.MsgsOut != 1 {
		t.Fatalf("MsgsOut = %d, want 1 (faulted writes never count)", st.MsgsOut)
	}
}

func TestWriterDrainsToHealthyPeer(t *testing.T) {
	a, b := net.Pipe()
	c := NewConn(a)
	c.StartWriter(WriterConfig{MaxBatches: 64, MaxBytes: 1 << 20})
	defer c.Close()
	peer := NewConn(b)
	defer peer.Close()

	const n = 50
	go func() {
		for i := 0; i < n; i++ {
			c.WritePacket(&KeepAlive{Nonce: int64(i)})
		}
	}()
	for i := 0; i < n; i++ {
		p, _, err := peer.ReadPacket()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		ka, ok := p.(*KeepAlive)
		if !ok || ka.Nonce != int64(i) {
			t.Fatalf("read %d: got %#v, want KeepAlive{%d} (FIFO order)", i, p, i)
		}
	}
}

func TestWriterCloseUnblocksStalledWrite(t *testing.T) {
	a, b := net.Pipe()
	c := NewConn(a)
	c.StartWriter(WriterConfig{MaxBatches: 4, MaxBytes: 1 << 20})
	defer b.Close()

	if _, err := c.WritePacket(&KeepAlive{Nonce: 1}); err != nil {
		t.Fatalf("write: %v", err)
	}

	// The writer goroutine is (or will be) blocked in the pipe write; Close
	// must shut it down and return rather than hang.
	done := make(chan struct{})
	go func() { c.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a stalled writer")
	}

	if _, err := c.WritePacket(&KeepAlive{Nonce: 2}); err == nil {
		t.Fatal("write after Close succeeded, want error")
	}
}

func TestStartWriterIdempotent(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	c := NewConn(a)
	c.StartWriter(WriterConfig{})
	aw := c.aw
	c.StartWriter(WriterConfig{MaxBatches: 1})
	if c.aw != aw {
		t.Fatal("second StartWriter replaced the writer")
	}
	c.Close()
}

// discard swallows writes; safe for the writer goroutine.
type discard struct{}

func (discard) Read(p []byte) (int, error)  { return 0, io.EOF }
func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) Close() error                { return nil }

// TestWriterKeepsUpWithoutAllocs: on an async conn whose writer keeps up,
// a write allocates nothing once warm. The batch buffer comes back through
// c.free, and the writer's queue keeps its backing array between rounds.
// Like the server's Test*Allocs it counts process-wide mallocs with the
// collector off and keeps the cheapest of several runs.
func TestWriterKeepsUpWithoutAllocs(t *testing.T) {
	c := NewConn(discard{})
	c.StartWriter(WriterConfig{})
	defer c.Close()
	_, frame := EncodeFrame(nil, &KeepAlive{Nonce: 1})
	drained := func() bool {
		c.wmu.Lock()
		defer c.wmu.Unlock()
		return len(c.free) > 0
	}
	const writes = 100
	writeAll := func() {
		for i := 0; i < writes; i++ {
			if _, err := c.WriteFrame(frame); err != nil {
				t.Fatal(err)
			}
			for !drained() {
				runtime.Gosched()
			}
		}
	}
	writeAll()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fewest := ^uint64(0)
	for run := 0; run < 5; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		writeAll()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	t.Logf("%.2f allocs per write", float64(fewest)/writes)
	if fewest > 0 {
		t.Fatal("a write that the writer drains allocated")
	}
}

// TestStatsSameForBothSinks: one write and batch sequence counts the same
// on a connection that writes the stream itself and on one behind an
// async writer — both count a batch when its sink takes it.
func TestStatsSameForBothSinks(t *testing.T) {
	run := func(c *Conn) Stats {
		t.Helper()
		_, move := EncodeFrame(nil, &EntityMove{EntityID: 3, X: 1, Y: 2, Z: 3})
		mustWrite := func(_ int, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		mustWrite(c.WritePacket(&KeepAlive{Nonce: 1}))
		mustWrite(c.WriteFrame(move))
		c.BeginBatch()
		c.BeginBatch()
		mustWrite(c.WritePacket(&EntityMoveRel{EntityID: 3, DX: 1}))
		mustWrite(c.WriteFrame(move))
		if err := c.FlushBatch(); err != nil {
			t.Fatal(err)
		}
		mustWrite(c.WritePacket(&Chat{Sender: "a", Text: "hi"}))
		if err := c.FlushBatch(); err != nil {
			t.Fatal(err)
		}
		c.StagePacket(&LoginSuccess{PlayerID: 1})
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		return c.Stats()
	}
	syncStats := run(NewConn(discard{}))
	async := NewConn(discard{})
	async.StartWriter(WriterConfig{})
	defer async.Close()
	asyncStats := run(async)
	if syncStats != asyncStats {
		t.Fatalf("stats differ by sink:\nstream %+v\nwriter %+v", syncStats, asyncStats)
	}
	if syncStats.MsgsOut != 6 || syncStats.EntityMsgs != 3 {
		t.Fatalf("stats %+v, want 6 msgs (3 entity)", syncStats)
	}
}

// TestStreamBatchFailsAtFlush: inside a batch window a write only stages,
// so a batch larger than any buffer to a closed peer reports nothing until
// its FlushBatch, which returns the stream's error and counts nothing.
func TestStreamBatchFailsAtFlush(t *testing.T) {
	a, b := net.Pipe()
	b.Close()
	c := NewConn(a)
	defer c.Close()
	chunk := &ChunkData{Data: make([]byte, 8<<10)}
	c.BeginBatch()
	for i := 0; i < 10; i++ { // 80 KiB: past maxPooledReadBuf
		if _, err := c.WritePacket(chunk); err != nil {
			t.Fatalf("in-batch write %d: %v", i, err)
		}
	}
	if err := c.FlushBatch(); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("FlushBatch = %v, want the closed pipe's error", err)
	}
	if st := c.Stats(); st.MsgsOut != 0 || st.BytesOut != 0 {
		t.Fatalf("failed batch counted: %+v", st)
	}
	if c.batch != nil {
		t.Fatalf("kept a %d-byte batch buffer past maxPooledReadBuf", cap(c.batch))
	}
}

// TestStagePacketLeadsNextFlush: a staged packet waits for the next flush
// boundary and goes out ahead of what that boundary flushes.
func TestStagePacketLeadsNextFlush(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(rwc{&buf})
	c.StagePacket(&LoginSuccess{PlayerID: 7})
	if buf.Len() != 0 {
		t.Fatal("StagePacket flushed")
	}
	c.BeginBatch()
	if err := c.Flush(); err != nil || buf.Len() != 0 {
		t.Fatalf("Flush inside a batch window wrote %d bytes (err %v)", buf.Len(), err)
	}
	c.WritePacket(&KeepAlive{Nonce: 1})
	if err := c.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	want := AppendFrame(AppendFrame(nil, &LoginSuccess{PlayerID: 7}), &KeepAlive{Nonce: 1})
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("stream %x, want LoginSuccess then KeepAlive %x", buf.Bytes(), want)
	}
}
