package main

import (
	"sort"
	"sync"
	"time"
)

// ackRec is one positively acknowledged multicast as its sender saw it. Due
// and Done are nanoseconds since the run's epoch.
type ackRec struct {
	Seq  uint64
	I    uint64
	Due  int64
	Done int64
	Lane uint32
}

// recvLog is what one member's delivery callback saw. The callback checks
// order as events arrive; verifyGroup compares the logs afterwards.
type recvLog struct {
	mu    sync.Mutex
	seqs  []uint64
	crcs  []uint32
	times []int64 // delivery instant for traced messages, else 0

	lastCounter [maxLanes]int64
	outOfOrder  int
	fifoBroken  int
	foreign     int
}

func newRecvLog(capacity int) *recvLog {
	r := &recvLog{seqs: make([]uint64, 0, capacity), crcs: make([]uint32, 0, capacity), times: make([]int64, 0, capacity)}
	for i := range r.lastCounter {
		r.lastCounter[i] = -1
	}
	return r
}

// on records one delivery, seen at the instant now (ns since the epoch), and
// returns the header the sender stamped. The instant is kept only for
// messages traced says were due in a traced slice.
func (r *recvLog) on(ev event, now int64, traced func(due int64) bool) (lane uint32, i uint64, due int64) {
	lane, i, due, ok := header(ev.Data)
	crc := checksum(ev.Data)
	var at int64
	if ok && traced != nil && traced(due) {
		at = now
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.seqs); n > 0 && ev.Seq <= r.seqs[n-1] {
		r.outOfOrder++
	}
	switch {
	case !ok:
		r.foreign++
	case int64(i) <= r.lastCounter[lane]:
		r.fifoBroken++
	default:
		r.lastCounter[lane] = int64(i)
	}
	r.seqs = append(r.seqs, ev.Seq)
	r.crcs = append(r.crcs, crc)
	r.times = append(r.times, at)
	return lane, i, due
}

func (r *recvLog) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.seqs)
}

func (r *recvLog) lastSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.seqs) == 0 {
		return 0
	}
	return r.seqs[len(r.seqs)-1]
}

// member is one client of a workload's group.
type member struct {
	name string
	c    *conn
	log  *recvLog
	// joinNext is the first sequence number the join promised as a live
	// delivery.
	joinNext uint64
	// lanes is the set of sender lanes on this connection, as a bitmask;
	// with sender-exclusive multicasts their events are not delivered back.
	lanes uint32
}

// quiesce waits until every member has seen lastSeq or been denied it by
// sender exclusion, for at most the timeout.
func quiesce(members []*member, lastSeq func(*member) uint64, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for _, m := range members {
		for m.log.lastSeq() < lastSeq(m) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
}

// verifyGroup runs the ordering checks over one group. acks must hold every
// multicast ever sent to the group: the harness is its only sender, so the
// acknowledged sequence numbers must be exactly 1..N. Each member must have
// seen, in strictly increasing order, every event from its join on (minus
// its own when exclusive), carrying the bytes the sender generated, with
// each lane's counters increasing. A gap inside a log is an ordering
// failure; events still missing at the end are counted as undelivered.
func verifyGroup(s *stream, group string, acks []ackRec, members []*member, exclusive bool, led *ledger) {
	sort.Slice(acks, func(a, b int) bool { return acks[a].Seq < acks[b].Seq })
	want := make([]uint32, len(acks)+1)
	buf := make([]byte, payloadSize)
	for k, a := range acks {
		if a.Seq != uint64(k+1) {
			led.problem("%s: acknowledged seqs are not 1..N: position %d holds seq %d", group, k+1, a.Seq)
			return
		}
		want[a.Seq] = checksum(s.msg(a.Lane, a.I, a.Due, buf).data)
	}
	last := uint64(len(acks))
	for _, m := range members {
		r := m.log
		r.mu.Lock()
		if r.outOfOrder > 0 || r.fifoBroken > 0 || r.foreign > 0 {
			led.problem("%s/%s: %d deliveries out of seq order, %d breaking sender FIFO, %d with a foreign payload",
				group, m.name, r.outOfOrder, r.fifoBroken, r.foreign)
		}
		own := func(seq uint64) bool { return exclusive && m.lanes&(1<<acks[seq-1].Lane) != 0 }
		next := m.joinNext
		for k, seq := range r.seqs {
			if seq > last {
				led.problem("%s/%s: delivered seq %d was never acknowledged", group, m.name, seq)
				break
			}
			if r.crcs[k] != want[seq] {
				led.problem("%s/%s: seq %d carries different bytes than its sender generated", group, m.name, seq)
				break
			}
			if own(seq) {
				led.problem("%s/%s: sender-exclusive seq %d came back to its sender", group, m.name, seq)
				break
			}
			for next < seq && own(next) {
				next++
			}
			if seq != next {
				led.problem("%s/%s: gap in deliveries: got seq %d, expected %d", group, m.name, seq, next)
				break
			}
			next = seq + 1
		}
		var owed, missing int64
		for seq := m.joinNext; seq <= last; seq++ {
			if own(seq) {
				continue
			}
			owed++
			if seq >= next {
				missing++
			}
		}
		r.mu.Unlock()
		led.expectDeliveries(owed, missing)
	}
}
