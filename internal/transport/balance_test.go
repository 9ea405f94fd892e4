package transport

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"corona/internal/wire"
)

// ledger makes chunk frames that count their onFinal runs, and checks that
// every frame it made was finally released exactly once: transport.frames_live
// is back at its level when the ledger was opened, and each frame's onFinal
// ran once. A send takes one reference whatever it returns, so no test below
// releases a frame it sent.
type ledger struct {
	t      *testing.T
	start  int64
	finals []*atomic.Int32
}

func newLedger(t *testing.T) *ledger {
	return &ledger{t: t, start: framesLive.Load()}
}

// frame makes a chunk frame of size body bytes: below gatherMax the body
// rides the frame's buffer, from it the writer writes it with one writev.
func (l *ledger) frame(size int) *SharedFrame {
	n := new(atomic.Int32)
	l.finals = append(l.finals, n)
	m := &wire.TransferChunk{RequestID: uint64(len(l.finals)), Group: "g", Segments: wire.Segments{make([]byte, size)}}
	return NewChunkFrame(m, func() { n.Add(1) })
}

func (l *ledger) frames(k, size int) []*SharedFrame {
	fs := make([]*SharedFrame, k)
	for i := range fs {
		fs[i] = l.frame(size)
	}
	return fs
}

// live is how many of the ledger's frames frames_live counts now.
func (l *ledger) live() int64 { return framesLive.Load() - l.start }

// balanced fails the test unless every frame made was finally released
// exactly once.
func (l *ledger) balanced() {
	l.t.Helper()
	if n := l.live(); n != 0 {
		l.t.Errorf("transport.frames_live is %+d from where it started", n)
	}
	for i, n := range l.finals {
		if got := n.Load(); got != 1 {
			l.t.Errorf("frame %d: onFinal ran %d times, want once", i+1, got)
		}
	}
}

// TestSendBalanceWritten: an admitted run is written and released by the
// pump, and nothing is left live once the pump is closed.
func TestSendBalanceWritten(t *testing.T) {
	l := newLedger(t)
	client, server := tcpPair(t)
	pump := NewPump(client, 0)
	const n = 8
	if admitted, err := pump.SendSharedRun(l.frames(n, 64), false); admitted != n || err != nil {
		t.Fatalf("admitted=%d err=%v", admitted, err)
	}
	for i := 0; i < n; i++ {
		if _, err := server.ReadMessage(); err != nil {
			t.Fatal(err)
		}
	}
	pump.Close()
	l.balanced()
}

// TestSendBalanceTornRun: a run that overflows a lane is torn there on
// either lane; the pump releases the refused suffix at once, and the admitted
// prefix when it has written it.
func TestSendBalanceTornRun(t *testing.T) {
	for _, high := range []bool{false, true} {
		l := newLedger(t)
		client, server := tcpPair(t)
		pump := newPump(client, 4) // the writer starts only below
		fit := cap(pump.ch)
		if high {
			fit = cap(pump.hi)
		}
		admitted, err := pump.SendSharedRun(l.frames(fit+3, 64), high)
		if admitted != fit || !errors.Is(err, ErrPumpOverflow) {
			t.Fatalf("high=%v: admitted=%d err=%v, want %d, ErrPumpOverflow", high, admitted, err, fit)
		}
		if n := l.live(); n != int64(fit) {
			t.Fatalf("high=%v: %d frames live after the tear, want the %d admitted", high, n, fit)
		}
		go pump.run()
		for i := 0; i < fit; i++ {
			if _, err := server.ReadMessage(); err != nil {
				t.Fatal(err)
			}
		}
		pump.Close()
		l.balanced()
	}
}

// TestSendBalanceClosedPump: a closed pump admits nothing and releases the
// whole run itself, whichever way it was closed.
func TestSendBalanceClosedPump(t *testing.T) {
	l := newLedger(t)
	client, _ := tcpPair(t)
	pump := NewPump(client, 4)
	pump.Close()
	if admitted, err := pump.SendSharedRun(l.frames(3, 64), true); admitted != 0 || !errors.Is(err, ErrPumpClosed) {
		t.Fatalf("admitted=%d err=%v, want 0, ErrPumpClosed", admitted, err)
	}
	if err := pump.SendMessage(&wire.Ping{}); !errors.Is(err, ErrPumpClosed) {
		t.Fatalf("SendMessage after Close: %v, want ErrPumpClosed", err)
	}
	l.balanced()
}

// TestSendBalanceWriteError: a write error fails the pump, which drains
// both lanes and releases every frame queued on them, and a send to the
// failed pump releases its run and returns the write error.
func TestSendBalanceWriteError(t *testing.T) {
	l := newLedger(t)
	a, b := net.Pipe()
	b.Close()
	defer a.Close()
	pump := newPump(NewConn(a), 8)
	// Frames of gatherMax bytes go to the socket with their own writev, so
	// the first write fails instead of filling the write buffer.
	for _, high := range []bool{true, false} {
		if admitted, err := pump.SendSharedRun(l.frames(4, gatherMax), high); admitted != 4 || err != nil {
			t.Fatalf("high=%v: admitted=%d err=%v", high, admitted, err)
		}
	}
	go pump.run()
	deadline := time.Now().Add(5 * time.Second)
	for pump.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("the pump never failed on a closed pipe")
		}
		time.Sleep(time.Millisecond)
	}
	<-pump.done
	if admitted, err := pump.SendSharedRun(l.frames(2, 64), false); admitted != 0 || err == nil || errors.Is(err, ErrPumpClosed) {
		t.Fatalf("send to a failed pump: admitted=%d err=%v, want 0 and the write error", admitted, err)
	}
	pump.Close()
	l.balanced()
}

// TestSendBalanceCloseQueued: Close writes what is queued on both lanes
// and releases each frame once.
func TestSendBalanceCloseQueued(t *testing.T) {
	l := newLedger(t)
	client, server := tcpPair(t)
	pump := newPump(client, 8)
	for _, high := range []bool{false, true} {
		if admitted, err := pump.SendSharedRun(l.frames(5, 64), high); admitted != 5 || err != nil {
			t.Fatalf("high=%v: admitted=%d err=%v", high, admitted, err)
		}
	}
	go pump.run()
	pump.Close()
	for i := 0; i < 10; i++ {
		if _, err := server.ReadMessage(); err != nil {
			t.Fatal(err)
		}
	}
	l.balanced()
}

// TestSendSharedKeepsRefusedReference pins SendShared's own contract, on
// which callers that release on refusal rely: an admitted frame's reference
// passes to the pump, and a refused one stays with the caller.
func TestSendSharedKeepsRefusedReference(t *testing.T) {
	l := newLedger(t)
	client, server := tcpPair(t)
	pump := NewPump(client, 0)
	if err := pump.SendShared(l.frame(64), false); err != nil {
		t.Fatal(err)
	}
	if _, err := server.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	pump.Close()

	refused := l.frame(64)
	if err := pump.SendShared(refused, true); !errors.Is(err, ErrPumpClosed) {
		t.Fatalf("SendShared to a closed pump: %v, want ErrPumpClosed", err)
	}
	if n := l.live(); n != 1 {
		t.Fatalf("%d frames live after the refusal, want the caller's 1", n)
	}
	refused.Release()
	l.balanced()
}
