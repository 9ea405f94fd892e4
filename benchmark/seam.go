package main

// seam.go is the only file of the benchmark that names symbols of the
// program under test. Every other file speaks the harness's own types, so a
// change to a program API breaks this file and nothing else, and the list of
// obs instruments the per-layer ledger reads is checked in one place: a name
// the program no longer registers is a hard error, never a silent zero.

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync/atomic"

	"corona/internal/client"
	"corona/internal/cluster"
	"corona/internal/core"
	"corona/internal/obs"
	"corona/internal/seq"
	"corona/internal/state"
	"corona/internal/transport"
	"corona/internal/view"
	"corona/internal/wal"
	"corona/internal/wire"
)

// Harness names for the protocol types the workloads handle.
type (
	event      = wire.Event
	eventKind  = wire.EventKind
	object     = wire.Object
	joinResult = client.JoinResult
	walFS      = wal.FS
	wireMsg    = wire.Message
	walFile    = wal.File
)

const (
	kindState  = wire.EventState
	kindUpdate = wire.EventUpdate
)

// osFS is the real filesystem the modelled-sync wrapper writes through to.
var osFS walFS = wal.OSFS

// autoReduceThreshold is the log-reduction policy a deployment would set;
// every benchmark server runs with it so server state stays bounded.
const autoReduceThreshold = 4096

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// ---- service side -------------------------------------------------------

// serverOpts selects the storage shape of a single server.
type serverOpts struct {
	dir        string // "" keeps state in memory only
	syncAlways bool   // SyncAlways (durable acks) instead of SyncNever
	fs         walFS  // filesystem beneath the WAL (nil: the real one)
}

func engineConfig(o serverOpts) core.EngineConfig {
	cfg := core.EngineConfig{
		Dir:                 o.dir,
		WALFS:               o.fs,
		Logger:              quietLogger(),
		AutoReduceThreshold: autoReduceThreshold,
		// One registry for engine, wal, transport and cluster instruments,
		// so a single snapshot covers every layer.
		Metrics: obs.Default,
	}
	if o.syncAlways {
		cfg.Sync = wal.SyncAlways
	}
	return cfg
}

// service is the program under test: one server, or a coordinator with its
// member servers. Clients dial addrs.
type service struct {
	addrs   []string
	engines []*core.Engine
	closers []func() error
}

// openSingle builds a single server, recovering whatever log o.dir holds. It
// is the call recover_cold times; the server does not accept clients until
// start.
func openSingle(o serverOpts) (*service, func(), error) {
	srv, err := core.NewServer(core.Config{Engine: engineConfig(o)})
	if err != nil {
		return nil, nil, err
	}
	s := &service{
		addrs:   []string{srv.Addr().String()},
		engines: []*core.Engine{srv.Engine()},
		closers: []func() error{srv.Close},
	}
	return s, srv.Start, nil
}

func startSingle(o serverOpts) (*service, error) {
	s, start, err := openSingle(o)
	if err != nil {
		return nil, err
	}
	start()
	return s, nil
}

// startCluster boots a coordinator plus members member servers with
// elections disabled (the benchmark never kills the coordinator).
func startCluster(members int) (*service, error) {
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Logger: quietLogger()})
	if err != nil {
		return nil, err
	}
	coord.Start()
	s := &service{closers: []func() error{coord.Close}}
	for i := 0; i < members; i++ {
		m, err := cluster.NewServer(cluster.ServerConfig{
			ID:              uint64(i + 2), // the coordinator is 1
			CoordinatorAddr: coord.Addr(),
			Engine:          engineConfig(serverOpts{}),
			DisableElection: true,
			Logger:          quietLogger(),
		})
		if err == nil {
			err = m.Start()
		}
		if err != nil {
			if m != nil {
				_ = m.Close()
			}
			_ = s.Close()
			return nil, err
		}
		s.addrs = append(s.addrs, m.ClientAddr())
		s.engines = append(s.engines, m.Engine())
		// Members close before the coordinator.
		s.closers = append([]func() error{m.Close}, s.closers...)
	}
	return s, nil
}

// Close stops every server of the service and returns the first error.
func (s *service) Close() error {
	var first error
	for _, c := range s.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	return first
}

// groupMark is one group's sequencing high-water mark and history digest.
type groupMark struct {
	Group   string
	NextSeq uint64
	Digest  uint64
}

// marks reports every group of the first server, sorted by name.
func (s *service) marks() []groupMark {
	rep := s.engines[0].SeqReport()
	out := make([]groupMark, len(rep))
	for i, g := range rep {
		out[i] = groupMark{Group: g.Group, NextSeq: g.NextSeq, Digest: g.Digest}
	}
	return out
}

// digestEvent folds one event into a history digest exactly as the
// program's replicas do.
func digestEvent(digest uint64, ev event) uint64 { return state.DigestEvent(digest, ev) }

// ---- obs instruments ----------------------------------------------------

// Counter and histogram names the per-layer ledger reads.
const (
	obsPumpStalls       = "transport.pump.stalls"
	obsBytesOut         = "transport.bytes_out"
	obsReadCoalesced    = "transport.read_coalesced_frames"
	obsDropped          = "engine.dropped"
	obsBackpressure     = "engine.fanout_backpressure_waits"
	obsWALFsyncs        = "wal.fsyncs"
	obsLockWait         = "engine.bcast_lock_wait_ns"
	obsLockHold         = "engine.bcast_lock_hold_ns"
	obsFanoutOfflock    = "engine.fanout_offlock_ns"
	obsIngestBatch      = "engine.ingest_batch_size"
	obsDeliveryBatch    = "engine.delivery_batch_size"
	obsJoin             = "engine.join_ns"
	obsJoinLockHold     = "engine.join_lock_hold_ns"
	obsWALAppendNs      = "wal.append_ns"
	obsWALBatchRecords  = "wal.batch_records"
	obsClusterDistNs    = "cluster.distribute_ns"
	obsClusterForwarded = "cluster.forwarded"
)

var (
	obsCounters = []string{
		obsPumpStalls, obsBytesOut, obsReadCoalesced, obsDropped, obsBackpressure,
		obsWALFsyncs, obsClusterForwarded,
	}
	obsHistograms = []string{
		obsLockWait, obsLockHold, obsFanoutOfflock, obsIngestBatch, obsDeliveryBatch,
		obsJoin, obsJoinLockHold, obsWALAppendNs, obsWALBatchRecords, obsClusterDistNs,
	}
)

// histSnap is the part of a histogram the ledger uses: log2 buckets, each
// holding Count samples at or below Upper.
type histSnap struct {
	Count, Sum uint64
	Buckets    []histBucket
}

type histBucket struct {
	Upper int64
	Count uint64
}

// metricsSnap is a point-in-time copy of the instruments in obsCounters and
// obsHistograms.
type metricsSnap struct {
	Counters   map[string]uint64
	Histograms map[string]histSnap
}

// snapshotMetrics reads the process-wide registry. Engine instruments exist
// once an engine has been built on it, so call it after the service is up.
func snapshotMetrics() (metricsSnap, error) {
	raw := obs.Default.Snapshot()
	out := metricsSnap{Counters: map[string]uint64{}, Histograms: map[string]histSnap{}}
	for _, name := range obsCounters {
		v, ok := raw.Counters[name]
		if !ok {
			return out, fmt.Errorf("seam: the program no longer registers obs counter %q", name)
		}
		out.Counters[name] = v
	}
	for _, name := range obsHistograms {
		h, ok := raw.Histograms[name]
		if !ok {
			return out, fmt.Errorf("seam: the program no longer registers obs histogram %q", name)
		}
		hs := histSnap{Count: h.Count, Sum: h.Sum}
		for _, b := range h.Buckets {
			hs.Buckets = append(hs.Buckets, histBucket{Upper: b.Upper, Count: b.Count})
		}
		out.Histograms[name] = hs
	}
	return out, nil
}

// ---- client side --------------------------------------------------------

// conn is one client connection to the service.
type conn struct{ c *client.Client }

// dial connects a named client; onEvent receives its live deliveries on the
// client's read loop.
func dial(addr, name string, onEvent func(ev event)) (*conn, error) {
	cfg := client.Config{Addr: addr, Name: name, Logger: quietLogger()}
	if onEvent != nil {
		cfg.OnEvent = func(_ string, ev wire.Event) { onEvent(ev) }
	}
	c, err := client.Dial(cfg)
	if err != nil {
		return nil, err
	}
	return &conn{c: c}, nil
}

func (c *conn) close() { _ = c.c.Close() }

func (c *conn) createGroup(group string, persistent bool, initial []object) error {
	return c.c.CreateGroup(group, persistent, initial)
}

// join joins with a full state transfer, the policy the paper's fast-join
// claim is about.
func (c *conn) join(group string) (*joinResult, error) {
	return c.c.Join(group, client.JoinOptions{})
}

func (c *conn) leave(group string) error { return c.c.Leave(group) }

// bcast multicasts one message and waits for its ack; under SyncAlways on a
// persistent group the ack is sent only once the record is durable.
func (c *conn) bcast(group string, kind eventKind, objectID string, data []byte, senderInclusive bool) (uint64, error) {
	if kind == kindState {
		return c.c.BcastState(group, objectID, data, senderInclusive)
	}
	return c.c.BcastUpdate(group, objectID, data, senderInclusive)
}

// failKind classifies how an operation failed, for failed_frac.
type failKind int

const (
	failNone failKind = iota
	failRefused
	failNacked
	failTimedOut
	failErrored
)

func classify(err error) failKind {
	var se *client.ServerError
	switch {
	case err == nil:
		return failNone
	case errors.Is(err, client.ErrTimeout):
		return failTimedOut
	case errors.As(err, &se) && se.Code == wire.CodeNotDurable:
		return failNacked
	case errors.As(err, &se):
		return failRefused
	default:
		return failErrored
	}
}

// clientView is the client-side materialized group state.
type clientView struct{ v *view.View }

func newClientView() *clientView { return &clientView{v: view.New()} }

func (v *clientView) applyJoin(res *joinResult) error { return v.v.ApplyJoin(res) }
func (v *clientView) applyEvent(ev event) error       { return v.v.ApplyEvent(ev) }
func (v *clientView) lastSeq() uint64                 { return v.v.LastSeq() }
func (v *clientView) objects() []object               { return v.v.Objects() }
func (v *clientView) reset()                          { v.v.Reset() }

// ---- layer calls for the traced replay ----------------------------------

// bcastMsg and deliverMsg build the two frames a multicast puts on the wire.
func bcastMsg(group string, kind eventKind, objectID string, data []byte, reqID uint64) wire.Message {
	return &wire.Bcast{RequestID: reqID, Group: group, EvKind: kind, ObjectID: objectID, Data: data, SenderInclusive: true}
}

func deliverMsg(group string, ev event) wire.Message {
	return &wire.Deliver{Group: group, Event: ev}
}

// encodeFrame appends msg's framed encoding to buf.
func encodeFrame(buf []byte, msg wire.Message) []byte { return transport.EncodeFrame(buf, msg) }

// decodeFrame decodes a frame produced by encodeFrame.
func decodeFrame(frame []byte) error {
	_, err := wire.Unmarshal(frame[4:])
	return err
}

// wirePair is a connected pair of framed loopback TCP connections.
type wirePair struct{ a, b *transport.Conn }

func newWirePair() (*wirePair, error) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	a, err := transport.Dial(l.Addr().String(), client.DefaultDialTimeout)
	if err != nil {
		return nil, err
	}
	b, err := l.Accept()
	if err != nil {
		_ = a.Close()
		return nil, err
	}
	return &wirePair{a: a, b: b}, nil
}

func (p *wirePair) close() {
	_ = p.a.Close()
	_ = p.b.Close()
}

// writeRead sends msg from one end and reads it at the other.
func (p *wirePair) writeRead(msg wire.Message) error {
	if err := p.a.WriteMessage(msg); err != nil {
		return err
	}
	_, err := p.b.ReadMessage()
	return err
}

// drain reads and discards frames at the far end until the pair closes,
// counting them; it returns once the connection is closed.
func (p *wirePair) drain(frames *atomic.Int64) {
	for {
		msg, err := p.a.ReadMessage()
		for msg != nil && err == nil {
			frames.Add(1)
			msg, err = p.a.ReadMessageBuffered()
		}
		if err != nil {
			return
		}
	}
}

// pumpFan is k write pumps over loopback pairs, the server's fanout shape.
type pumpFan struct {
	pairs []*wirePair
	pumps []*transport.Pump
}

func newPumpFan(k int) (*pumpFan, error) {
	f := &pumpFan{}
	for i := 0; i < k; i++ {
		p, err := newWirePair()
		if err != nil {
			f.close()
			return nil, err
		}
		f.pairs = append(f.pairs, p)
		f.pumps = append(f.pumps, transport.NewPump(p.b, 0))
	}
	return f, nil
}

// sendShared encodes msg once and enqueues the frame on every pump, the way
// the fanout workers do.
func (f *pumpFan) sendShared(msg wire.Message) error {
	shared := transport.NewSharedFrame(msg)
	var first error
	for _, p := range f.pumps {
		shared.Retain()
		if err := p.SendShared(shared, false); err != nil {
			shared.Release()
			if first == nil {
				first = err
			}
		}
	}
	shared.Release()
	return first
}

func (f *pumpFan) close() {
	for _, p := range f.pumps {
		p.Close()
	}
	for _, p := range f.pairs {
		p.close()
	}
}

// engineRig is an engine with one sender session and k receiver sessions on
// loopback connections, driven through Engine.HandleMessage directly (no
// server read loop), so a call's duration is the engine's own work.
type engineRig struct {
	engine *core.Engine
	sender *core.Session
	pairs  []*wirePair
	group  string
}

func newEngineRig(group string, receivers int) (*engineRig, error) {
	e, err := core.NewEngine(engineConfig(serverOpts{}))
	if err != nil {
		return nil, err
	}
	r := &engineRig{engine: e, group: group}
	if err := e.CreateGroupDirect(group, false, nil); err != nil {
		r.close()
		return nil, err
	}
	for i := 0; i <= receivers; i++ {
		p, err := newWirePair()
		if err != nil {
			r.close()
			return nil, err
		}
		r.pairs = append(r.pairs, p)
		sess, err := e.AddSession(p.b, fmt.Sprintf("rig-%d", i))
		if err != nil {
			r.close()
			return nil, err
		}
		e.HandleMessage(sess, &wire.Join{RequestID: 1, Group: group, Policy: wire.TransferPolicy{Mode: wire.TransferNone}, Role: wire.RolePrincipal})
		r.sender = sess // the last to join sends, as the probe does
	}
	return r, nil
}

// handle runs one multicast through the engine.
func (r *engineRig) handle(msg wire.Message) { r.engine.HandleMessage(r.sender, msg) }

func (r *engineRig) close() {
	_ = r.engine.Close()
	for _, p := range r.pairs {
		p.close()
	}
}

// stateGroup is one group's server-side shared state.
type stateGroup struct{ g *state.Group }

func newStateGroup(initial []object) *stateGroup { return &stateGroup{g: state.NewInitial(initial)} }

func (s *stateGroup) apply(ev event) error { return s.g.Apply(ev) }

// captureFull takes the copy-on-write transfer view a full join captures
// under the engine lock and returns its payload size.
func (s *stateGroup) captureFull() (uint64, error) {
	tr, err := s.g.Capture(wire.FullTransfer)
	return tr.PayloadBytes(), err
}

// restore rebuilds a group from its own checkpoint image, as recovery does
// when it meets a checkpoint record, and returns the image's payload bytes
// (objects plus retained history).
func (s *stateGroup) restore() (int, error) {
	cp := s.g.Checkpoint()
	n := 0
	for _, o := range cp.Objects {
		n += len(o.Data)
	}
	for _, ev := range cp.History {
		n += len(ev.Data)
	}
	_, err := state.RestoreMaterialized(cp)
	return n, err
}

// joinResultOf builds the transfer a full join of the group would deliver.
func (s *stateGroup) joinResultOf(group string) *joinResult {
	return &joinResult{Group: group, Objects: s.g.Objects(), BaseSeq: s.g.NextSeq() - 1, NextSeq: s.g.NextSeq()}
}

// sequencer assigns per-group sequence numbers.
type sequencer struct{ s *seq.Sequencer }

func newSequencer() *sequencer { return &sequencer{s: seq.New(nil)} }

func (s *sequencer) next(group string) uint64 {
	n, _ := s.s.Next(group)
	return n
}

// replayLog opens the log in dir and replays every record, returning the
// record count and payload bytes.
func replayLog(dir string, fs walFS) (records int, bytes int64, err error) {
	l, err := wal.Open(wal.Options{Dir: dir, FS: fs})
	if err != nil {
		return 0, 0, err
	}
	err = l.Replay(0, func(_ uint64, payload []byte) error {
		records++
		bytes += int64(len(payload))
		return nil
	})
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	return records, bytes, err
}
