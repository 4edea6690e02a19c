package control

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"
)

// Controller is the Control Server (Figure 5, component 3): it accepts
// worker connections and synchronizes them with Table 1 messages, awaiting
// an ok/err acknowledgement for each command.
type Controller struct {
	mu      sync.Mutex
	workers []*workerConn
	accept  chan *workerConn
}

type workerConn struct {
	conn net.Conn
	bw   *bufio.Writer
	// replies receives ok/err acknowledgements from the worker.
	replies chan Message
}

// NewController returns an idle controller.
func NewController() *Controller {
	return &Controller{accept: make(chan *workerConn, 16)}
}

// Serve accepts worker connections until the listener closes.
func (c *Controller) Serve(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		w := &workerConn{
			conn:    conn,
			bw:      bufio.NewWriter(conn),
			replies: make(chan Message, 4),
		}
		c.mu.Lock()
		c.workers = append(c.workers, w)
		c.mu.Unlock()
		go w.readLoop()
		select {
		case c.accept <- w:
		default:
		}
	}
}

func (w *workerConn) readLoop() {
	sc := bufio.NewScanner(w.conn)
	for sc.Scan() {
		m, err := Parse(sc.Text())
		if err != nil {
			continue
		}
		if m.Type == MsgOK || m.Type == MsgErr {
			w.replies <- m
		}
	}
	close(w.replies)
}

// WaitForWorkers blocks until n workers have connected or the timeout
// elapses.
func (c *Controller) WaitForWorkers(n int, timeout time.Duration) error {
	deadline := time.After(timeout)
	for {
		c.mu.Lock()
		have := len(c.workers)
		c.mu.Unlock()
		if have >= n {
			return nil
		}
		select {
		case <-c.accept:
		case <-deadline:
			return fmt.Errorf("control: %d of %d workers connected before timeout", have, n)
		}
	}
}

// Send transmits a message to worker idx and waits for its ok/err
// acknowledgement. keep_alive and exit are fire-and-forget.
func (c *Controller) Send(idx int, m Message) error {
	c.mu.Lock()
	if idx < 0 || idx >= len(c.workers) {
		c.mu.Unlock()
		return fmt.Errorf("control: no worker %d", idx)
	}
	w := c.workers[idx]
	c.mu.Unlock()

	w.bw.WriteString(m.String())
	w.bw.WriteByte('\n')
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("control: send to worker %d: %w", idx, err)
	}
	if m.Type == MsgKeepAlive || m.Type == MsgExit {
		return nil
	}
	reply, ok := <-w.replies
	if !ok {
		return fmt.Errorf("control: worker %d disconnected awaiting ack", idx)
	}
	if reply.Type == MsgErr {
		return fmt.Errorf("control: worker %d: %s", idx, reply.Arg)
	}
	return nil
}

// Broadcast sends a message to every worker, failing on the first error.
func (c *Controller) Broadcast(m Message) error {
	c.mu.Lock()
	n := len(c.workers)
	c.mu.Unlock()
	for i := 0; i < n; i++ {
		if err := c.Send(i, m); err != nil {
			return err
		}
	}
	return nil
}

// Worker is the node-side surface a Control Client drives: the lifecycle
// hooks behind each Table 1 command. The MLG node implements the server
// hooks; player-emulation nodes implement Connect/Convert.
type Worker interface {
	// SetServer selects the MLG flavor to run.
	SetServer(name string) error
	// SetJMX points the metric externalizer at the given endpoint.
	SetJMX(url string) error
	// SetIteration positions the experiment at an iteration index.
	SetIteration(iter string) error
	// Initialize starts the selected server.
	Initialize() error
	// LogStart and LogStop control the metric logging tools.
	LogStart() error
	LogStop() error
	// StopServer stops the running server.
	StopServer() error
	// Connect starts player emulation.
	Connect() error
	// Convert post-processes metric files.
	Convert() error
	// Exit tells the worker process to shut down.
	Exit()
}

// Client is a Control Client (Figure 5, component 4): it connects to the
// controller, dispatches incoming commands to its Worker, and acknowledges
// each with ok or err.
type Client struct {
	conn net.Conn
	w    Worker
	done chan struct{}
	once sync.Once
}

// NewClient connects a worker to the controller at addr and starts the
// dispatch loop.
func NewClient(addr string, w Worker) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("control: dial controller: %w", err)
	}
	c := &Client{conn: conn, w: w, done: make(chan struct{})}
	go c.loop()
	return c, nil
}

func (c *Client) loop() {
	sc := bufio.NewScanner(c.conn)
	bw := bufio.NewWriter(c.conn)
	reply := func(m Message) {
		bw.WriteString(m.String())
		bw.WriteByte('\n')
		bw.Flush()
	}
	for sc.Scan() {
		m, err := Parse(sc.Text())
		if err != nil {
			reply(Message{Type: MsgErr, Arg: err.Error()})
			continue
		}
		switch m.Type {
		case MsgKeepAlive:
			continue
		case MsgExit:
			c.w.Exit()
			c.Close()
			return
		}
		if err := c.dispatch(m); err != nil {
			reply(Message{Type: MsgErr, Arg: err.Error()})
		} else {
			reply(Message{Type: MsgOK})
		}
	}
}

func (c *Client) dispatch(m Message) error {
	switch m.Type {
	case MsgSetServer:
		return c.w.SetServer(m.Arg)
	case MsgSetJMX:
		return c.w.SetJMX(m.Arg)
	case MsgIter:
		return c.w.SetIteration(m.Arg)
	case MsgInitialize:
		return c.w.Initialize()
	case MsgLogStart:
		return c.w.LogStart()
	case MsgLogStop:
		return c.w.LogStop()
	case MsgStopServer:
		return c.w.StopServer()
	case MsgConnect:
		return c.w.Connect()
	case MsgConvert:
		return c.w.Convert()
	default:
		return fmt.Errorf("control: unexpected command %q", m.Type)
	}
}

// Done reports a channel closed when the client exits.
func (c *Client) Done() <-chan struct{} { return c.done }

// Close terminates the client connection.
func (c *Client) Close() {
	c.once.Do(func() {
		close(c.done)
		c.conn.Close()
	})
}

// RunIteration drives one benchmark iteration over the control plane,
// exactly in the order the paper's Control Server uses: position both
// nodes at the iteration, initialize the MLG, start logging, start player
// emulation, wait out the duration, stop logging, stop the server, convert
// metrics. serverIdx and emulationIdx identify the two workers.
func (c *Controller) RunIteration(serverIdx, emulationIdx, iter int, flavor string, duration time.Duration) error {
	steps := []struct {
		idx int
		msg Message
	}{
		{serverIdx, Message{Type: MsgSetServer, Arg: flavor}},
		{emulationIdx, Message{Type: MsgSetServer, Arg: flavor}},
		{serverIdx, Message{Type: MsgIter, Arg: fmt.Sprint(iter)}},
		{emulationIdx, Message{Type: MsgIter, Arg: fmt.Sprint(iter)}},
		{serverIdx, Message{Type: MsgInitialize}},
		{serverIdx, Message{Type: MsgLogStart}},
		{emulationIdx, Message{Type: MsgConnect}},
	}
	for _, st := range steps {
		if err := c.Send(st.idx, st.msg); err != nil {
			return err
		}
	}
	time.Sleep(duration)
	tail := []struct {
		idx int
		msg Message
	}{
		{serverIdx, Message{Type: MsgLogStop}},
		{serverIdx, Message{Type: MsgStopServer}},
		{emulationIdx, Message{Type: MsgConvert}},
	}
	for _, st := range tail {
		if err := c.Send(st.idx, st.msg); err != nil {
			return err
		}
	}
	return nil
}
