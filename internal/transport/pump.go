package transport

import (
	"sync"

	"corona/internal/wire"
)

// DefaultPumpDepth is the default per-receiver queue depth. At 1000-byte
// messages this bounds a slow receiver's backlog to about 1 MiB before the
// server gives up on it.
const DefaultPumpDepth = 1024

// Pump asynchronously writes frames to a connection through a bounded
// queue. A server creates one Pump per client so that fanning a multicast
// out to N members costs one non-blocking enqueue per member, and a stalled
// member fails fast (ErrPumpOverflow) instead of stalling the group.
//
// Frames enqueued by a single goroutine are written in enqueue order, which
// preserves the total order the sequencer established.
type Pump struct {
	conn *Conn
	ch   chan *SharedFrame
	// hi is the priority lane: the writer drains it before the normal
	// lane, so traffic of high-priority groups overtakes queued bulk
	// traffic on the same connection. Ordering within a lane is preserved.
	// Across lanes, a priority frame is written before every normal frame
	// enqueued after it — a streamed join's JoinAck before its chunks —
	// while a normal frame may be overtaken. This is the scheduling half
	// of the paper's QoS-adaptive server (§5.3).
	hi chan *SharedFrame
	// waiting, when a test sets it, runs each time the writer has found
	// the priority lane empty and is about to wait on both lanes.
	waiting func()

	mu     sync.Mutex
	closed bool
	err    error

	done chan struct{}
}

// NewPump starts a pump over conn with the given queue depth (0 means
// DefaultPumpDepth).
func NewPump(conn *Conn, depth int) *Pump {
	p := newPump(conn, depth)
	go p.run()
	return p
}

// newPump builds a pump whose writer is not started yet.
func newPump(conn *Conn, depth int) *Pump {
	if depth <= 0 {
		depth = DefaultPumpDepth
	}
	hiDepth := depth / 4
	if hiDepth < 16 {
		hiDepth = 16
	}
	return &Pump{
		conn: conn,
		ch:   make(chan *SharedFrame, depth),
		hi:   make(chan *SharedFrame, hiDepth),
		done: make(chan struct{}),
	}
}

// SendShared enqueues a pooled frame on the normal lane, or on the
// priority lane when high is set, and keeps the caller's reference when the
// pump refuses it: on success the pump owns the caller's reference, on error
// the caller still holds it and must release it. It never blocks; an error
// is ErrPumpOverflow or the pump's closing error, and the caller should
// treat the receiver as failed. It is SendSharedRun's admission without its
// release of what was refused.
func (p *Pump) SendShared(f *SharedFrame, high bool) error {
	_, err := p.enqueue([]*SharedFrame{f}, high)
	return err
}

// SendSharedRun enqueues an ordered run of pooled frames on one lane under
// a single mutex acquisition, admitting the longest prefix that fits, and
// takes one reference of every frame in fs whatever it returns: the pump
// writes the admitted prefix and releases it after the write, and releases
// the refused suffix itself. It never blocks. A run that does not fit is
// torn at the overflow point, which is order-safe — the admitted prefix is
// written in order — and it returns how many frames were admitted with
// ErrPumpOverflow; a closed pump admits none and returns its closing error.
// An error tells the caller to fail the receiver, nothing else.
func (p *Pump) SendSharedRun(fs []*SharedFrame, high bool) (int, error) {
	n, err := p.enqueue(fs, high)
	for _, f := range fs[n:] {
		f.Release()
	}
	return n, err
}

// enqueue admits the longest prefix of fs that fits in the lane and reports
// its length, leaving the references of the rest to the caller.
func (p *Pump) enqueue(fs []*SharedFrame, high bool) (int, error) {
	// The enqueue happens under the mutex so it cannot race a concurrent
	// close of the channel; the select never blocks, so the critical
	// section stays short.
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		if p.err != nil {
			return 0, p.err
		}
		return 0, ErrPumpClosed
	}
	ch := p.ch
	if high {
		ch = p.hi
	}
	for n, f := range fs {
		select {
		case ch <- f:
		default:
			pumpStalls.Inc()
			pumpEnqueued.Add(uint64(n))
			pumpDepth.Add(int64(n))
			return n, ErrPumpOverflow
		}
	}
	pumpEnqueued.Add(uint64(len(fs)))
	pumpDepth.Add(int64(len(fs)))
	return len(fs), nil
}

// SendMessage marshals msg into a pooled frame and enqueues it on the
// normal lane. Use SendSharedRun directly when writing the same message to
// many pumps.
func (p *Pump) SendMessage(msg wire.Message) error {
	_, err := p.SendSharedRun([]*SharedFrame{NewSharedFrame(msg)}, false)
	return err
}

// Err returns the write error that stopped the pump, if any.
func (p *Pump) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Close stops the pump after draining frames already enqueued, and waits
// for the writer goroutine to exit. It does not close the connection.
func (p *Pump) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.ch)
		close(p.hi)
	}
	p.mu.Unlock()
	<-p.done
}

func (p *Pump) run() {
	defer close(p.done)
	hi, normal := p.hi, p.ch
	for hi != nil || normal != nil {
		// The priority lane is drained first whenever it has frames.
		if hi != nil {
			select {
			case f, ok := <-hi:
				if !ok {
					hi = nil
					continue
				}
				pumpDepth.Add(-1)
				if !p.writeOne(f) {
					return
				}
				continue
			default:
			}
		}
		if p.waiting != nil {
			p.waiting()
		}
		select {
		case f, ok := <-hi: // blocks forever once hi is nil
			if !ok {
				hi = nil
				continue
			}
			pumpDepth.Add(-1)
			if !p.writeOne(f) {
				return
			}
		case f, ok := <-normal:
			if !ok {
				normal = nil
				continue
			}
			pumpDepth.Add(-1)
			// The select picks at random between ready lanes: priority
			// frames that arrived since the look above still go first.
			for len(hi) > 0 {
				pumpDepth.Add(-1)
				if !p.writeOne(<-hi) {
					f.Release()
					return
				}
			}
			if !p.writeOne(f) {
				return
			}
		}
	}
	_ = p.conn.flush()
}

// writeOne writes a frame the pump owns and releases it, flushing when both
// lanes have momentarily gone empty so bursts share one syscall. It reports
// false after a write error.
func (p *Pump) writeOne(f *SharedFrame) bool {
	err := p.conn.writeShared(f)
	f.Release()
	if err != nil {
		p.fail(err)
		return false
	}
	if len(p.ch) == 0 && len(p.hi) == 0 {
		if err := p.conn.flush(); err != nil {
			p.fail(err)
			return false
		}
	}
	return true
}

// fail records err, marks the pump closed, and drains remaining frames so
// senders that raced Close/failure do not leak.
func (p *Pump) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	alreadyClosed := p.closed
	p.closed = true
	if !alreadyClosed {
		close(p.ch)
		close(p.hi)
	}
	p.mu.Unlock()
	for f := range p.ch { // discard
		f.Release()
		pumpDepth.Add(-1)
	}
	for f := range p.hi {
		f.Release()
		pumpDepth.Add(-1)
	}
}
