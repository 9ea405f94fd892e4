package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// layerPlan says which layers a workload's multicasts pass through, so the
// traced replay times those and reports 0 for the rest.
type layerPlan struct {
	// path replays the multicast path: wire, transport, core, state, seq.
	path bool
	// fanout is how many members one server delivers each multicast to.
	fanout int
	// extraHops and extraNs add the cluster's forward and distribute
	// transport hops and its distribute step to the attributed time.
	extraHops int
	extraNs   float64
	// joinBytes replays a full join's capture, restore and view install
	// over that much pre-loaded state.
	joinBytes int
	// logDir replays the write-ahead log there directly.
	logDir string
	logFS  walFS
}

const replayGroup = "replay"

// replayLayers is the traced pass's second half: it pushes the workload's
// own seeded messages through each layer's public functions, one layer at a
// time, with a span around every call. The spans of one message share its
// index; a span's parent is the call whose work contains it, so a layer's
// self time is its span minus its children. Nothing here touches program
// code: what the calls cannot see from outside stays unattributed.
func replayLayers(rc runConfig, plan layerPlan, s *stream, o *outcome, rttP50ms float64) error {
	tr, n := o.tr, rc.size.replayMsgs
	tr.endLive()
	since := func(t time.Time) int64 { return t.Sub(tr.epoch).Nanoseconds() }
	timed := func(name, parent string, msg uint64, fn func() error) error {
		t0 := time.Now()
		err := fn()
		tr.add(name, parent, msg, since(t0), since(time.Now()))
		return err
	}
	if plan.path {
		if err := replayPath(plan, s, o, n, timed); err != nil {
			return err
		}
	}
	if plan.joinBytes > 0 {
		if err := replayJoin(rc, plan.joinBytes, o, timed); err != nil {
			return err
		}
	}
	if plan.logDir != "" {
		if err := replayRecovery(plan, s, o, n, timed); err != nil {
			return err
		}
	}

	self := tr.selfTimes()
	o.layer["self.wire_ns"] = self["wire.encode_bcast"] + self["wire.decode_bcast"] + self["wire.encode_deliver"] + self["wire.decode_deliver"]
	o.layer["self.transport_ns"] = self["transport.write_read"]
	o.layer["self.core_ns"] = self["core.handle"]
	o.layer["self.state_ns"] = self["state.apply"]
	o.layer["self.seq_ns"] = self["seq.next"]
	if rttP50ms > 0 {
		// One multicast's blocking steps: the bcast frame up, the engine,
		// one enqueue per member ahead of the probe, the deliver frame
		// down; a cluster adds two peer hops and the distribute step.
		hop := median(tr.durations("transport.write_read"))
		down := median(tr.durations("transport.write_read_deliver"))
		attributed := hop + median(tr.durations("core.handle")) +
			float64(plan.fanout)*o.layer["transport.pump_enqueue_ns_per_frame"] + down +
			float64(plan.extraHops)*(hop+down)/2 + plan.extraNs
		o.layer["ledger.attributed_us"] = attributed / 1e3
		o.layer["ledger.unattributed_frac"] = 1 - attributed/(rttP50ms*1e6)
	}
	return nil
}

// timedFn runs fn inside a span.
type timedFn func(name, parent string, msg uint64, fn func() error) error

// replayPath times the layers a multicast crosses, message by message.
func replayPath(plan layerPlan, s *stream, o *outcome, n int, timed timedFn) error {
	buf := make([]byte, payloadSize)
	ups, downs, events := make([]wireMsg, n), make([]wireMsg, n), make([]event, n)
	for i := range events {
		m := s.msg(probeLane, uint64(i), 0, buf)
		m.data = append([]byte(nil), m.data...)
		events[i] = event{Seq: uint64(i + 1), Kind: m.kind, ObjectID: m.object, Data: m.data, Sender: 1, Time: 1}
		ups[i] = bcastMsg(replayGroup, m.kind, m.object, m.data, uint64(i)+2)
		downs[i] = deliverMsg(replayGroup, events[i])
	}

	// wire: encode and decode of the two frames a multicast becomes. The
	// client's transport call contains the Bcast codec work; the engine
	// encodes the Deliver frame under the group mutex.
	frame := make([]byte, 0, 2*payloadSize)
	for i := range events {
		id := uint64(i)
		for _, f := range []struct {
			enc, encParent, dec, decParent string
			msg                            wireMsg
		}{
			{"wire.encode_bcast", "transport.write_read", "wire.decode_bcast", "transport.write_read", ups[i]},
			{"wire.encode_deliver", "core.handle", "wire.decode_deliver", "transport.write_read_deliver", downs[i]},
		} {
			_ = timed(f.enc, f.encParent, id, func() error {
				frame = encodeFrame(frame[:0], f.msg)
				return nil
			})
			if err := timed(f.dec, f.decParent, id, func() error { return decodeFrame(frame) }); err != nil {
				return err
			}
		}
	}
	codec := make([]float64, n)
	for _, name := range []string{"wire.encode_bcast", "wire.decode_bcast", "wire.encode_deliver", "wire.decode_deliver"} {
		for i, d := range o.tr.durations(name) {
			codec[i] += d
		}
	}
	o.layer["wire.codec_ns_per_msg"] = median(codec)
	// The same calls again without spans, to count their allocations alone.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range events {
		frame = encodeFrame(frame[:0], ups[i])
		_ = decodeFrame(frame)
		frame = encodeFrame(frame[:0], downs[i])
		_ = decodeFrame(frame)
	}
	runtime.ReadMemStats(&m1)
	o.layer["wire.allocs_per_msg"] = float64(m1.Mallocs-m0.Mallocs) / float64(n)

	// transport: one frame written at one end of a loopback connection and
	// read at the other, for each of the two frame kinds.
	pair, err := newWirePair()
	if err != nil {
		return err
	}
	defer pair.close()
	for i := range events {
		if err := timed("transport.write_read", "", uint64(i), func() error { return pair.writeRead(ups[i]) }); err != nil {
			return err
		}
		if err := timed("transport.write_read_deliver", "", uint64(i), func() error { return pair.writeRead(downs[i]) }); err != nil {
			return err
		}
	}
	o.layer["transport.write_read_ns_per_frame"] = median(o.tr.durations("transport.write_read"))

	// transport pump: one shared frame enqueued on the write pumps of as
	// many members as the workload's fanout, each pump idle when it comes.
	fan, err := newPumpFan(plan.fanout)
	if err != nil {
		return err
	}
	var drained atomic.Int64
	var wg sync.WaitGroup
	for _, p := range fan.pairs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.drain(&drained)
		}()
	}
	for i := range events {
		if err = timed("transport.pump_enqueue", "", uint64(i), func() error { return fan.sendShared(downs[i]) }); err != nil {
			break
		}
		waitFor(&drained, int64((i+1)*plan.fanout))
	}
	fan.close()
	wg.Wait()
	if err != nil {
		return err
	}
	o.layer["transport.pump_enqueue_ns_per_frame"] = median(o.tr.durations("transport.pump_enqueue")) / float64(plan.fanout)

	// seq and state: the two calls the engine makes under the group mutex.
	sq, st := newSequencer(), newStateGroup(nil)
	for i := range events {
		_ = timed("seq.next", "core.handle", uint64(i), func() error {
			sq.next(replayGroup)
			return nil
		})
		if err := timed("state.apply", "core.handle", uint64(i), func() error { return st.apply(events[i]) }); err != nil {
			return err
		}
	}
	o.layer["seq.next_ns"] = median(o.tr.durations("seq.next"))
	o.layer["state.apply_ns_per_event"] = median(o.tr.durations("state.apply"))

	// core: Engine.HandleMessage with the workload's fanout of sessions
	// attached; each call returns once the event is sequenced, applied and
	// pushed to the fanout ring.
	rig, err := newEngineRig(replayGroup, plan.fanout-1)
	if err != nil {
		return err
	}
	drained.Store(0)
	for _, p := range rig.pairs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.drain(&drained)
		}()
	}
	settled := waitSettle(&drained) // the joins' acks and notifications
	for i := range events {
		_ = timed("core.handle", "", uint64(i), func() error {
			rig.handle(ups[i])
			return nil
		})
		// One delivery per member plus the sender's ack.
		settled += int64(plan.fanout + 1)
		waitFor(&drained, settled)
	}
	rig.close()
	wg.Wait()
	o.layer["core.handle_ns_per_msg"] = median(o.tr.durations("core.handle"))
	return nil
}

// replayRecovery times recovery's layers apart: the log scan alone, applying
// logged events to a group's state, and restoring a checkpoint image of the
// state they leave.
func replayRecovery(plan layerPlan, s *stream, o *outcome, n int, timed timedFn) error {
	var bytes int64
	t0 := time.Now()
	if err := timed("wal.replay", "", 0, func() (err error) {
		_, bytes, err = replayLog(plan.logDir, plan.logFS)
		return err
	}); err != nil {
		return fmt.Errorf("replaying the log: %w", err)
	}
	o.layer["wal.replay_mb_per_s"] = float64(bytes) / 1e6 / time.Since(t0).Seconds()
	st, buf := newStateGroup(nil), make([]byte, payloadSize)
	for i := 0; i < n; i++ {
		m := s.msg(0, uint64(i), 0, buf)
		ev := event{Seq: uint64(i + 1), Kind: m.kind, ObjectID: m.object, Data: m.data}
		if err := timed("state.apply", "", uint64(i), func() error { return st.apply(ev) }); err != nil {
			return err
		}
	}
	o.layer["state.apply_ns_per_event"] = median(o.tr.durations("state.apply"))
	var image int
	for i := 0; i < 20; i++ {
		if err := timed("state.restore", "", uint64(i), func() (err error) {
			image, err = st.restore()
			return err
		}); err != nil {
			return err
		}
	}
	o.layer["state.restore_ns_per_mb"] = median(o.tr.durations("state.restore")) / (float64(image) / 1e6)
	return nil
}

// replayJoin times what a full join costs each layer over the workload's
// pre-loaded state: the engine's copy-on-write capture, recovery's restore
// of the same image, and the client view installing the transfer.
func replayJoin(rc runConfig, joinBytes int, o *outcome, timed timedFn) error {
	initial := make([]object, staticObjects)
	for k := range initial {
		initial[k] = object{ID: fmt.Sprintf("static-%d", k), Data: blob(rc.seed+int64(k)+1, joinBytes/staticObjects)}
	}
	st := newStateGroup(initial)
	for i := 0; i < 200; i++ {
		if err := timed("state.capture_full", "", uint64(i), func() error {
			_, err := st.captureFull()
			return err
		}); err != nil {
			return err
		}
	}
	o.layer["state.capture_full_ns"] = median(o.tr.durations("state.capture_full"))
	res, v := st.joinResultOf(replayGroup), newClientView()
	for i := 0; i < 20; i++ {
		if err := timed("state.restore", "", uint64(i), func() error {
			_, err := st.restore()
			return err
		}); err != nil {
			return err
		}
		v.reset()
		if err := timed("view.apply_join", "", uint64(i), func() error { return v.applyJoin(res) }); err != nil {
			return err
		}
	}
	o.layer["state.restore_ns_per_mb"] = median(o.tr.durations("state.restore")) / (float64(joinBytes) / 1e6)
	o.layer["view.apply_join_ns"] = median(o.tr.durations("view.apply_join"))
	return nil
}

// waitFor yields until the counter reaches n (or five seconds pass: a lost
// frame then shows as a wrong number, not a hang).
func waitFor(c *atomic.Int64, n int64) {
	deadline := time.Now().Add(5 * time.Second)
	for c.Load() < n && time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// waitSettle waits until the counter has stopped moving for a millisecond
// and returns it.
func waitSettle(c *atomic.Int64) int64 {
	for {
		n := c.Load()
		time.Sleep(time.Millisecond)
		if c.Load() == n {
			return n
		}
	}
}
