// Package client is the Corona client library: it connects to a Corona
// server (standalone or any server of a replicated service), joins groups
// with a customizable state-transfer policy, multicasts state and update
// messages, and receives ordered deliveries and membership notifications.
//
// The client mirrors the downloadable applet clients of the paper: it is
// deliberately thin — all ordering, logging, and state keeping happen at
// the service — and it supports reconnection with incremental resync by
// sequence number (companion-paper [15] behaviour): after a connection
// loss, Reconnect re-dials and re-joins every group with a TransferResume
// policy so only the missed suffix is transferred.
package client

import (
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"corona/internal/obs"
	"corona/internal/transport"
	"corona/internal/wire"
)

// Client-side instruments on the process-wide registry. Delivery
// latency spans the server's sequencing timestamp to local receipt, so
// it is cross-clock when client and server are on different machines;
// implausible samples (negative, or over a minute) are dropped.
var (
	clientDeliveryNs = obs.Default.Histogram("client.delivery_ns")
	clientReconnects = obs.Default.Counter("client.reconnects")
	clientResyncs    = obs.Default.Counter("client.resyncs")
)

// Defaults.
const (
	// DefaultTimeout bounds a synchronous request round trip.
	DefaultTimeout = 10 * time.Second
	// DefaultDialTimeout bounds connection establishment, dial to HelloAck.
	DefaultDialTimeout = transport.OpenTimeout
)

// Client errors.
var (
	ErrClosed  = errors.New("client: closed")
	ErrTimeout = errors.New("client: request timed out")
)

// ServerError is a request failure reported by the service.
type ServerError struct {
	Code wire.ErrCode
	Text string
}

// Error implements error.
func (e *ServerError) Error() string {
	return fmt.Sprintf("server error %s: %s", e.Code, e.Text)
}

// Config configures a Client.
type Config struct {
	// Addr is the server address.
	Addr string
	// Name is the display name surfaced in membership info.
	Name string
	// OnEvent receives live group deliveries, in total order per group.
	// It runs on the client's read loop: it must not block and must not
	// call synchronous Client methods. Callbacks never run while the read
	// loop has the connection corked, so a BcastUpdateNoWait made from one
	// is on the wire before it returns.
	OnEvent func(group string, ev wire.Event)
	// OnMembership receives membership-change notifications for groups
	// joined with Notify. Same constraints as OnEvent.
	OnMembership func(n wire.MembershipNotify)
	// OnTransferProgress reports a streamed state transfer's progress
	// during a large-state Join: received of total payload bytes. Same
	// constraints as OnEvent.
	OnTransferProgress func(group string, received, total uint64)
	// OnDisconnect fires once when the connection dies (not on Close).
	OnDisconnect func(err error)
	// AutoReconnect re-dials automatically after a connection loss and
	// re-joins every group with a resume transfer, retrying with
	// exponential backoff until Close. The resync results arrive via
	// OnResync.
	AutoReconnect bool
	// ReconnectBackoff is the initial retry delay for AutoReconnect
	// (default 100 ms, doubling up to 32×).
	ReconnectBackoff time.Duration
	// OnResync receives the per-group resync results of a successful
	// automatic reconnection. Runs on the reconnect goroutine.
	OnResync func(results map[string]*JoinResult)
	// Timeout bounds synchronous requests (default DefaultTimeout).
	Timeout time.Duration
	// DialTimeout bounds connection establishment, dial to HelloAck.
	DialTimeout time.Duration
	// Logger receives operational logs (nil: slog.Default).
	Logger *slog.Logger
}

// JoinOptions selects the state transfer and role for a Join.
type JoinOptions struct {
	// Policy is the state-transfer policy (zero value: full transfer).
	Policy wire.TransferPolicy
	// Role defaults to RolePrincipal.
	Role wire.Role
	// Notify subscribes to membership-change notifications.
	Notify bool
	// CreateIfMissing implicitly creates a transient group.
	CreateIfMissing bool
}

// JoinResult is the state transfer delivered with a successful join.
//
// Its buffers belong to the caller: nothing in the client reads or writes
// them after Join returns, so the caller may keep or modify them without
// copying (view.View.ApplyJoin adopts the objects' Data). An inline transfer
// decodes every object and event into its own buffer. A streamed one
// decodes them in place from the single reassembled payload: the Data
// slices are adjacent regions of one buffer, each capped at its own length
// so an append to one reallocates it instead of overwriting the next, and
// the payload stays allocated while any of them is reachable.
type JoinResult struct {
	Group string
	// Objects is the snapshot part of the transfer (full or per-object).
	Objects []wire.Object
	// Events is the incremental part (last-n or resume suffix).
	Events []wire.Event
	// BaseSeq is the sequence number the Objects incorporate.
	BaseSeq uint64
	// NextSeq is the first sequence number that will arrive as a live
	// delivery.
	NextSeq uint64
	// Members is the group membership at join time.
	Members []wire.MemberInfo
}

// joined records a group membership for reconnection.
type joined struct {
	opts    JoinOptions
	lastSeq uint64 // highest delivered or transferred seq
}

// pendingTransfer is one streamed state transfer in flight: the header ack,
// the assembler taking its chunks, and the live deliveries held back until
// TransferDone so the application sees the transferred state strictly
// before the events that follow it.
type pendingTransfer struct {
	ack      *wire.JoinAck
	asm      wire.TransferAssembler
	buffered []wire.Event
}

// Client is a Corona client connection.
type Client struct {
	cfg Config
	log *slog.Logger

	mu        sync.Mutex
	conn      *transport.Conn
	id        uint64
	serverID  uint64
	nextReq   uint64
	pending   map[uint64]chan wire.Message
	groups    map[string]*joined
	transfers map[string]*pendingTransfer // in-flight streamed joins, by group
	closed    bool
	readGen   int // bumped per connection; stale read loops exit quietly
}

// Dial connects and performs the Hello exchange.
func Dial(cfg Config) (*Client, error) {
	c := newClient(cfg)
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// newClient returns an unconnected client with cfg's defaults filled in.
func newClient(cfg Config) *Client {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	return &Client{
		cfg:       cfg,
		log:       cfg.Logger,
		pending:   make(map[uint64]chan wire.Message),
		groups:    make(map[string]*joined),
		transfers: make(map[string]*pendingTransfer),
	}
}

// connect opens a connection with the Hello exchange, then starts it.
func (c *Client) connect() error {
	conn, reply, err := transport.Open(c.cfg.Addr, c.cfg.DialTimeout,
		&wire.Hello{RequestID: 1, Proto: wire.ProtocolVersion, Name: c.cfg.Name})
	if err != nil {
		return fmt.Errorf("client: hello: %w", err)
	}
	return c.start(conn, reply)
}

// start takes conn, whose Hello was answered with reply, and starts its
// read loop.
func (c *Client) start(conn *transport.Conn, reply wire.Message) error {
	ack, ok := reply.(*wire.HelloAck)
	if !ok {
		conn.Close()
		if em, isErr := reply.(*wire.ErrorMsg); isErr {
			return &ServerError{Code: em.Code, Text: em.Text}
		}
		return fmt.Errorf("client: unexpected handshake reply %s", reply.Kind())
	}

	c.mu.Lock()
	c.conn = conn
	c.id = ack.ClientID
	c.serverID = ack.ServerID
	c.readGen++
	gen := c.readGen
	c.mu.Unlock()

	go c.readLoop(conn, gen)
	return nil
}

// ID returns the service-assigned client ID.
func (c *Client) ID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.id
}

// ServerID returns the identity of the serving process.
func (c *Client) ServerID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serverID
}

// Close closes the connection. Pending requests fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.failPendingLocked()
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// failPendingLocked unblocks every waiter and drops half-received state
// transfers (their joins fail with the connection). Caller holds c.mu.
func (c *Client) failPendingLocked() {
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
	for g := range c.transfers {
		delete(c.transfers, g)
	}
}

// readLoop dispatches inbound messages until the connection dies. After
// every blocking read it drains the frames already buffered, the way the
// server's session loop does, and hands the replies among them to their
// waiters at the end of the burst. When a burst completes two or more
// requests, their callers are about to send their next requests: the loop
// corks the connection, wakes them and yields once, so those requests
// leave in one socket write when it uncorks. A burst that completes fewer
// never corks or yields, and no callback runs corked.
func (c *Client) readLoop(conn *transport.Conn, gen int) {
	conn.ReadChunksInto(c.reserveChunk(gen))
	var readErr error
	var done []completion // the current burst's replies
	wake := func() {
		for _, d := range done {
			d.ch <- d.reply
		}
		clear(done) // a large reply is not kept until the next burst
	}
	for readErr == nil {
		done = done[:0]
		msg, err := conn.ReadMessage()
		for ; msg != nil && err == nil; msg, err = conn.ReadMessageBuffered() {
			if d, ok := c.dispatch(conn, msg); ok {
				done = append(done, d)
			}
		}
		readErr = err
		if readErr != nil || len(done) < 2 {
			wake()
			continue
		}
		// A failed flush is a dead connection, handled as a read error.
		readErr = conn.Corked(func() {
			wake()
			runtime.Gosched()
		})
	}

	c.mu.Lock()
	stale := gen != c.readGen || c.closed
	if !stale {
		c.failPendingLocked()
	}
	c.mu.Unlock()
	conn.Close()
	// Any read failure on the current connection is a disconnect — an
	// EOF here means the server went away, not that we hung up (explicit
	// Close marks the client closed before the connection drops).
	if stale {
		return
	}
	if c.cfg.OnDisconnect != nil {
		c.cfg.OnDisconnect(readErr)
	}
	if c.cfg.AutoReconnect {
		go c.reconnectLoop()
	}
}

// completion is a reply and the channel of the request waiting for it.
type completion struct {
	ch    chan wire.Message
	reply wire.Message
}

// dispatch handles one inbound message. A reply to a waiting request is
// returned, for the read loop to hand over, rather than handed over here.
func (c *Client) dispatch(conn *transport.Conn, msg wire.Message) (completion, bool) {
	switch m := msg.(type) {
	case *wire.Deliver:
		c.deliverOne(m.Group, m.Event)
	case *wire.DeliverBatch:
		// A batch is a run of consecutively sequenced events; feeding
		// each through the single-delivery path keeps the ordering,
		// transfer-buffering, and resume-cursor logic identical.
		for _, ev := range m.Events {
			c.deliverOne(m.Group, ev)
		}
	case *wire.MembershipNotify:
		if c.cfg.OnMembership != nil {
			c.cfg.OnMembership(*m)
		}
	case *wire.JoinAck:
		if !m.Streaming {
			ch, ok := c.takeWaiter(m)
			return completion{ch, m}, ok
		}
		c.beginTransfer(m)
	case *wire.TransferChunk:
		c.transferChunk(m)
	case *wire.TransferDone:
		c.transferDone(m)
	case *wire.Ping:
		_ = conn.WriteMessage(&wire.Pong{Nonce: m.Nonce})
	default:
		ch, ok := c.takeWaiter(msg)
		return completion{ch, msg}, ok
	}
	return completion{}, false
}

// reconnectLoop retries Reconnect with jittered exponential backoff until
// it succeeds or the client is closed. Equal jitter — a draw from
// [backoff/2, backoff) — desynchronizes the retry herd: a server restart
// disconnects every client at once, and unjittered backoff would march
// them all back through the door on the same schedule.
func (c *Client) reconnectLoop() {
	backoff := c.cfg.ReconnectBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	max := 32 * backoff
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for {
		results, err := c.Reconnect()
		if err == nil {
			if c.cfg.OnResync != nil {
				c.cfg.OnResync(results)
			}
			return
		}
		if errors.Is(err, ErrClosed) {
			return
		}
		d := backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1))
		c.log.Debug("reconnect failed; retrying", "err", err, "backoff", d)
		time.Sleep(d)
		if backoff < max {
			backoff *= 2
		}
	}
}

// deliverOne runs one sequenced event through the ordered delivery path:
// latency sample, transfer buffering, resume cursor, then the OnEvent
// callback.
func (c *Client) deliverOne(group string, ev wire.Event) {
	if ev.Time > 0 {
		if d := time.Now().UnixNano() - ev.Time; d >= 0 && d < int64(time.Minute) {
			clientDeliveryNs.Record(d)
		}
	}
	if c.bufferDelivery(group, ev) {
		return // held until the group's TransferDone
	}
	c.noteDelivered(group, ev.Seq)
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(group, ev)
	}
}

// noteDelivered advances the per-group resume cursor.
func (c *Client) noteDelivered(group string, seqNo uint64) {
	c.mu.Lock()
	if j, ok := c.groups[group]; ok && seqNo > j.lastSeq {
		j.lastSeq = seqNo
	}
	c.mu.Unlock()
}

// beginTransfer opens reassembly for a streaming JoinAck. The pending Join
// request stays outstanding until transferDone completes it.
func (c *Client) beginTransfer(ack *wire.JoinAck) {
	c.mu.Lock()
	c.transfers[ack.Group] = &pendingTransfer{ack: ack}
	c.mu.Unlock()
}

// bufferDelivery holds back a live delivery that raced a state transfer for
// the same group, reporting whether it was buffered.
func (c *Client) bufferDelivery(group string, ev wire.Event) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.transfers[group]
	if !ok {
		return false
	}
	t.buffered = append(t.buffered, ev)
	return true
}

// reserveChunk is the read loop's wire.ChunkReserve: it reserves a
// chunk's body at the end of its group's assembler, and the connection reads
// the body from the socket straight into the transfer's buffer. Chunks
// arrive in offset order on the connection; one the assembler refuses (a
// gap, or a body past the announced total) means a protocol bug, and the
// join fails rather than delivering corrupt state. A chunk with no open
// transfer, or a refused one, is discarded from the stream.
func (c *Client) reserveChunk(gen int) wire.ChunkReserve {
	return func(m *wire.TransferChunk, size int) ([]byte, error) {
		c.mu.Lock()
		t, ok := c.transfers[m.Group]
		if !ok || gen != c.readGen {
			c.mu.Unlock()
			return nil, nil
		}
		body, err := t.asm.Reserve(m.Offset, m.Total, size)
		if err != nil {
			delete(c.transfers, m.Group)
		}
		c.mu.Unlock()
		if err != nil {
			c.completeRequest(&wire.ErrorMsg{RequestID: t.ack.RequestID, Code: wire.CodeInternal,
				Text: fmt.Sprintf("transfer for %q: %v", m.Group, err)})
		}
		return body, nil
	}
}

// transferChunk reports a chunk that reserveChunk took, now read, as
// progress.
func (c *Client) transferChunk(m *wire.TransferChunk) {
	if c.cfg.OnTransferProgress == nil {
		return
	}
	c.mu.Lock()
	t, ok := c.transfers[m.Group]
	var received uint64
	if ok {
		received = t.asm.Received()
	}
	c.mu.Unlock()
	if ok {
		c.cfg.OnTransferProgress(m.Group, received, m.Total)
	}
}

// transferDone verifies and decodes the reassembled payload, completes the
// pending Join with a now-complete JoinAck, and then flushes the deliveries
// buffered during the transfer, in order — the application observes exactly
// the sequence a blocking transfer would have produced, gap-free.
func (c *Client) transferDone(m *wire.TransferDone) {
	c.mu.Lock()
	t, ok := c.transfers[m.Group]
	if ok {
		delete(c.transfers, m.Group)
	}
	c.mu.Unlock()
	if !ok {
		return
	}
	ack := t.ack
	var err error
	ack.Objects, ack.Events, err = t.asm.Finish(m.Bytes)
	if err != nil {
		c.completeRequest(&wire.ErrorMsg{RequestID: ack.RequestID, Code: wire.CodeInternal,
			Text: fmt.Sprintf("transfer for %q: %v", m.Group, err)})
		return
	}
	ack.Streaming = false
	// Install the resume cursor before flushing so the buffered events
	// advance it; Join merges rather than clobbers this entry.
	c.mu.Lock()
	if j, exists := c.groups[m.Group]; exists {
		if ack.NextSeq-1 > j.lastSeq {
			j.lastSeq = ack.NextSeq - 1
		}
	} else {
		c.groups[m.Group] = &joined{lastSeq: ack.NextSeq - 1}
	}
	c.mu.Unlock()
	c.completeRequest(ack)
	for _, ev := range t.buffered {
		c.noteDelivered(m.Group, ev.Seq)
		if c.cfg.OnEvent != nil {
			c.cfg.OnEvent(m.Group, ev)
		}
	}
}

// requestID extracts the correlation ID from a reply message.
func requestID(msg wire.Message) (uint64, bool) {
	switch m := msg.(type) {
	case *wire.HelloAck:
		return m.RequestID, true
	case *wire.CreateGroupAck:
		return m.RequestID, true
	case *wire.DeleteGroupAck:
		return m.RequestID, true
	case *wire.JoinAck:
		return m.RequestID, true
	case *wire.LeaveAck:
		return m.RequestID, true
	case *wire.MembershipInfo:
		return m.RequestID, true
	case *wire.BcastAck:
		return m.RequestID, true
	case *wire.LockReply:
		return m.RequestID, true
	case *wire.ReduceLogAck:
		return m.RequestID, true
	case *wire.GroupList:
		return m.RequestID, true
	case *wire.Pong:
		return m.Nonce, true
	case *wire.ErrorMsg:
		return m.RequestID, true
	default:
		return 0, false
	}
}

// completeRequest hands a reply to its waiter, dropping replies nobody
// waits for (e.g. acks of fire-and-forget broadcasts).
func (c *Client) completeRequest(msg wire.Message) {
	if ch, ok := c.takeWaiter(msg); ok {
		ch <- msg
	}
}

// takeWaiter removes and returns the reply channel of the request msg
// answers, if one is waiting.
func (c *Client) takeWaiter(msg wire.Message) (chan wire.Message, bool) {
	id, ok := requestID(msg)
	if !ok {
		c.log.Debug("unexpected message", "kind", msg.Kind().String())
		return nil, false
	}
	c.mu.Lock()
	ch, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	return ch, ok
}

// newRequest allocates a request ID and its reply channel.
func (c *Client) newRequest() (uint64, chan wire.Message, *transport.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.conn == nil {
		return 0, nil, nil, ErrClosed
	}
	c.nextReq++
	id := c.nextReq + 1 // ID 1 is reserved for the Hello of each connect
	ch := make(chan wire.Message, 1)
	c.pending[id] = ch
	return id, ch, c.conn, nil
}

// abandon removes a pending request after a send failure or timeout.
func (c *Client) abandon(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// roundTrip sends a request and waits for its reply. build must stamp the
// supplied request ID into the message. timeout of 0 uses the configured
// default; negative waits forever.
func (c *Client) roundTrip(build func(id uint64) wire.Message, timeout time.Duration) (wire.Message, error) {
	id, ch, conn, err := c.newRequest()
	if err != nil {
		return nil, err
	}
	if err := conn.WriteMessage(build(id)); err != nil {
		c.abandon(id)
		return nil, fmt.Errorf("client: send: %w", err)
	}
	if timeout == 0 {
		timeout = c.cfg.Timeout
	}
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case msg, ok := <-ch:
		if !ok {
			return nil, ErrClosed
		}
		if em, isErr := msg.(*wire.ErrorMsg); isErr {
			return nil, &ServerError{Code: em.Code, Text: em.Text}
		}
		return msg, nil
	case <-timer:
		c.abandon(id)
		return nil, ErrTimeout
	}
}

// CreateGroup creates a group with an optional initial shared state.
func (c *Client) CreateGroup(name string, persistent bool, initial []wire.Object) error {
	reply, err := c.roundTrip(func(id uint64) wire.Message {
		return &wire.CreateGroup{RequestID: id, Group: name, Persistent: persistent, Initial: initial}
	}, 0)
	if err != nil {
		return err
	}
	if _, ok := reply.(*wire.CreateGroupAck); !ok {
		return fmt.Errorf("client: unexpected reply %s", reply.Kind())
	}
	return nil
}

// DeleteGroup deletes a group; its shared state is lost.
func (c *Client) DeleteGroup(name string) error {
	reply, err := c.roundTrip(func(id uint64) wire.Message {
		return &wire.DeleteGroup{RequestID: id, Group: name}
	}, 0)
	if err != nil {
		return err
	}
	if _, ok := reply.(*wire.DeleteGroupAck); !ok {
		return fmt.Errorf("client: unexpected reply %s", reply.Kind())
	}
	return nil
}

// Join joins a group and returns the requested state transfer.
func (c *Client) Join(group string, opts JoinOptions) (*JoinResult, error) {
	if opts.Policy.Mode == 0 {
		opts.Policy = wire.FullTransfer
	}
	if opts.Role == 0 {
		opts.Role = wire.RolePrincipal
	}
	reply, err := c.roundTrip(func(id uint64) wire.Message {
		return &wire.Join{
			RequestID: id, Group: group, Policy: opts.Policy,
			Role: opts.Role, Notify: opts.Notify, CreateIfMissing: opts.CreateIfMissing,
		}
	}, 0)
	if err != nil {
		return nil, err
	}
	ack, ok := reply.(*wire.JoinAck)
	if !ok {
		return nil, fmt.Errorf("client: unexpected reply %s", reply.Kind())
	}
	res := &JoinResult{
		Group:   group,
		Objects: ack.Objects,
		Events:  ack.Events,
		BaseSeq: ack.BaseSeq,
		NextSeq: ack.NextSeq,
		Members: ack.Members,
	}
	c.mu.Lock()
	// Merge, don't clobber: a streamed transfer may have installed the
	// entry already and buffered deliveries may have advanced lastSeq
	// past NextSeq-1.
	if j, ok := c.groups[group]; ok {
		j.opts = opts
		if ack.NextSeq-1 > j.lastSeq {
			j.lastSeq = ack.NextSeq - 1
		}
	} else {
		c.groups[group] = &joined{opts: opts, lastSeq: ack.NextSeq - 1}
	}
	c.mu.Unlock()
	return res, nil
}

// Leave leaves a group.
func (c *Client) Leave(group string) error {
	reply, err := c.roundTrip(func(id uint64) wire.Message {
		return &wire.Leave{RequestID: id, Group: group}
	}, 0)
	if err != nil {
		return err
	}
	if _, ok := reply.(*wire.LeaveAck); !ok {
		return fmt.Errorf("client: unexpected reply %s", reply.Kind())
	}
	c.mu.Lock()
	delete(c.groups, group)
	c.mu.Unlock()
	return nil
}

// BcastState multicasts a complete new state for an object; it replaces the
// object's present state at the service and at every member. Returns the
// assigned sequence number.
func (c *Client) BcastState(group, objectID string, data []byte, senderInclusive bool) (uint64, error) {
	return c.bcast(group, wire.EventState, objectID, data, senderInclusive)
}

// BcastUpdate multicasts an incremental change, appended to the object's
// existing state, preserving the history of updates. Returns the assigned
// sequence number.
func (c *Client) BcastUpdate(group, objectID string, data []byte, senderInclusive bool) (uint64, error) {
	return c.bcast(group, wire.EventUpdate, objectID, data, senderInclusive)
}

func (c *Client) bcast(group string, kind wire.EventKind, objectID string, data []byte, senderInclusive bool) (uint64, error) {
	reply, err := c.roundTrip(func(id uint64) wire.Message {
		return &wire.Bcast{
			RequestID: id, Group: group, EvKind: kind,
			ObjectID: objectID, Data: data, SenderInclusive: senderInclusive,
		}
	}, 0)
	if err != nil {
		return 0, err
	}
	ack, ok := reply.(*wire.BcastAck)
	if !ok {
		return 0, fmt.Errorf("client: unexpected reply %s", reply.Kind())
	}
	return ack.Seq, nil
}

// BcastUpdateNoWait multicasts an update without waiting for the ack,
// allowing senders to pipeline (the throughput configuration of the
// paper's Table 1). Errors surface only as connection failures.
func (c *Client) BcastUpdateNoWait(group, objectID string, data []byte, senderInclusive bool) error {
	c.mu.Lock()
	conn := c.conn
	closed := c.closed
	c.mu.Unlock()
	if closed || conn == nil {
		return ErrClosed
	}
	return conn.WriteMessage(&wire.Bcast{
		Group: group, EvKind: wire.EventUpdate,
		ObjectID: objectID, Data: data, SenderInclusive: senderInclusive,
	})
}

// Membership queries a group's current membership.
func (c *Client) Membership(group string) ([]wire.MemberInfo, error) {
	reply, err := c.roundTrip(func(id uint64) wire.Message {
		return &wire.GetMembership{RequestID: id, Group: group}
	}, 0)
	if err != nil {
		return nil, err
	}
	info, ok := reply.(*wire.MembershipInfo)
	if !ok {
		return nil, fmt.Errorf("client: unexpected reply %s", reply.Kind())
	}
	return info.Members, nil
}

// ListGroups returns the names of all groups at the service.
func (c *Client) ListGroups() ([]string, error) {
	reply, err := c.roundTrip(func(id uint64) wire.Message {
		return &wire.ListGroups{RequestID: id}
	}, 0)
	if err != nil {
		return nil, err
	}
	gl, ok := reply.(*wire.GroupList)
	if !ok {
		return nil, fmt.Errorf("client: unexpected reply %s", reply.Kind())
	}
	return gl.Groups, nil
}

// AcquireLock acquires a named lock within a group. With wait true the call
// blocks (without the default timeout) until the lock is granted; with wait
// false it returns immediately, reporting the current holder on denial.
func (c *Client) AcquireLock(group, name string, wait bool) (granted bool, holder uint64, err error) {
	timeout := time.Duration(0)
	if wait {
		timeout = -1
	}
	reply, err := c.roundTrip(func(id uint64) wire.Message {
		return &wire.LockAcquire{RequestID: id, Group: group, Name: name, Wait: wait}
	}, timeout)
	if err != nil {
		return false, 0, err
	}
	lr, ok := reply.(*wire.LockReply)
	if !ok {
		return false, 0, fmt.Errorf("client: unexpected reply %s", reply.Kind())
	}
	return lr.Granted, lr.Holder, nil
}

// ReleaseLock releases a held lock.
func (c *Client) ReleaseLock(group, name string) error {
	reply, err := c.roundTrip(func(id uint64) wire.Message {
		return &wire.LockRelease{RequestID: id, Group: group, Name: name}
	}, 0)
	if err != nil {
		return err
	}
	if _, ok := reply.(*wire.LockReply); !ok {
		return fmt.Errorf("client: unexpected reply %s", reply.Kind())
	}
	return nil
}

// ReduceLog asks the service to trim a group's update history up to
// upToSeq (0: up to the latest), returning the new checkpoint base and the
// number of entries discarded.
func (c *Client) ReduceLog(group string, upToSeq uint64) (baseSeq, trimmed uint64, err error) {
	reply, err := c.roundTrip(func(id uint64) wire.Message {
		return &wire.ReduceLog{RequestID: id, Group: group, UpToSeq: upToSeq}
	}, 0)
	if err != nil {
		return 0, 0, err
	}
	ack, ok := reply.(*wire.ReduceLogAck)
	if !ok {
		return 0, 0, fmt.Errorf("client: unexpected reply %s", reply.Kind())
	}
	return ack.BaseSeq, ack.Trimmed, nil
}

// Ping measures a service round trip.
func (c *Client) Ping() (time.Duration, error) {
	start := time.Now()
	reply, err := c.roundTrip(func(id uint64) wire.Message {
		return &wire.Ping{Nonce: id}
	}, 0)
	if err != nil {
		return 0, err
	}
	if _, ok := reply.(*wire.Pong); !ok {
		return 0, fmt.Errorf("client: unexpected reply %s", reply.Kind())
	}
	return time.Since(start), nil
}

// DropConnection severs the transport without closing the client, exactly
// as a network failure would. Tests and failure drills use it together
// with Reconnect.
func (c *Client) DropConnection() {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// Reconnect re-dials after a connection loss and re-joins every group the
// client was a member of, using a resume transfer so only the events missed
// while disconnected are fetched. The missed events (or full snapshots, if
// the suffix was reduced away at the service) are returned per group for
// the application to apply.
func (c *Client) Reconnect() (map[string]*JoinResult, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.conn != nil {
		_ = c.conn.Close()
	}
	c.failPendingLocked()
	rejoin := make(map[string]JoinOptions, len(c.groups))
	for name, j := range c.groups {
		opts := j.opts
		opts.Policy = wire.TransferPolicy{Mode: wire.TransferResume, FromSeq: j.lastSeq + 1}
		rejoin[name] = opts
	}
	c.mu.Unlock()

	if err := c.connect(); err != nil {
		return nil, err
	}
	clientReconnects.Inc()
	results := make(map[string]*JoinResult, len(rejoin))
	for name, opts := range rejoin {
		res, err := c.Join(name, opts)
		if err != nil {
			return results, fmt.Errorf("client: rejoin %q: %w", name, err)
		}
		results[name] = res
		clientResyncs.Inc()
	}
	return results, nil
}
