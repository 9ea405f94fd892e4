// Package core is a refsafe fixture spanning two fixture packages: the
// frame and pump types come from the sibling transport fixture, so one
// golden run exercises cross-package ownership tracking. Violations carry
// // want expectations; conforming code must stay silent.
package core

import "transport"

type Session struct {
	pump *transport.Pump
}

// --- conditional transfer: SendShared ------------------------------------

// good releases on the rejection path and lets success transfer.
func (s *Session) good(b []byte) {
	f := transport.NewSharedFrame(b)
	if err := s.pump.SendShared(f, false); err != nil {
		f.Release()
	}
}

// leakOnReject returns from the rejection branch still holding the frame.
func (s *Session) leakOnReject(b []byte) {
	f := transport.NewSharedFrame(b) // want `frame "f" can leak: a path reaches function exit still holding 1 reference\(s\)`
	if err := s.pump.SendShared(f, false); err != nil {
		return
	}
}

// leakOnRejectFallthrough forgets the Release without returning: the
// merged exit still sees the kept reference.
func (s *Session) leakOnRejectFallthrough(b []byte) {
	f := transport.NewSharedFrame(b) // want `frame "f" can leak: a path reaches function exit still holding 1 reference\(s\)`
	if err := s.pump.SendShared(f, false); err != nil {
		_ = err // rejected frame dropped on the floor
	}
}

// discard throws the send error away: the rejection path can never
// release.
func (s *Session) discard(b []byte) {
	f := transport.NewSharedFrame(b)
	s.pump.SendShared(f, false) // want `SendShared error discarded: the rejection path leaks`
}

// unchecked records the error but never compares it to nil.
func (s *Session) unchecked(b []byte) error {
	f := transport.NewSharedFrame(b)
	err := s.pump.SendShared(f, false) // want `SendShared error unchecked: the rejection path leaks frame "f"`
	return err
}

// escalates reports a send whose error leaves the function unhandled.
func (s *Session) escalates(b []byte) error {
	f := transport.NewSharedFrame(b)
	return s.pump.SendShared(f, false) // want `SendShared error leaves this function unchecked: the rejection path leaks frame "f"`
}

// inlineNew loses the constructed frame whenever the pump rejects it.
func (s *Session) inlineNew(b []byte) {
	if err := s.pump.SendShared(transport.NewSharedFrame(b), false); err != nil { // want `frame constructed inline is lost if SendShared rejects it`
		return
	}
}

// --- chunk frames ----------------------------------------------------------

// chunkGood is the transfer streamer's shape: a chunk frame is a frame like
// any other, released by the sender when the pump rejects it.
func (s *Session) chunkGood(m *transport.TransferChunk, done func()) error {
	f := transport.NewChunkFrame(m, done)
	if err := s.pump.SendShared(f, false); err != nil {
		f.Release()
		return err
	}
	return nil
}

// chunkLeakOnReject drops a rejected chunk frame, so its completion never
// runs and the transfer window never reopens.
func (s *Session) chunkLeakOnReject(m *transport.TransferChunk, done func()) error {
	f := transport.NewChunkFrame(m, done) // want `frame "f" can leak: a path reaches function exit still holding 1 reference\(s\)`
	if err := s.pump.SendShared(f, false); err != nil {
		return err
	}
	return nil
}

// --- refcount discipline -------------------------------------------------

// useAfterRelease reads the buffer after dropping the last reference.
func useAfterRelease(b []byte) []byte {
	f := transport.NewSharedFrame(b)
	f.Release()
	return f.Bytes() // want `use of "f" after release`
}

// doubleRelease drops the same reference twice.
func doubleRelease(b []byte) {
	f := transport.NewSharedFrame(b)
	f.Release()
	f.Release() // want `use of "f" after release`
}

// releaseAfterTransfer releases a frame the pump now owns.
func (s *Session) releaseAfterTransfer(b []byte) {
	f := transport.NewSharedFrame(b)
	if err := s.pump.SendShared(f, false); err != nil {
		f.Release()
		return
	}
	f.Release() // want `release of "f" past its last owned reference`
}

// retainLeak retains without a matching release.
func retainLeak(b []byte) *transport.SharedFrame {
	f := transport.NewSharedFrame(b) // want `frame "f" can leak: a path reaches function exit still holding 2 reference\(s\)`
	f.Retain()
	g := transport.NewSharedFrame(b)
	return g // returning g hands its reference to the caller: fine
}

// deferRelease balances the constructor reference with a deferred drop.
func deferRelease(b []byte) int {
	f := transport.NewSharedFrame(b)
	defer f.Release()
	return len(f.Bytes())
}

// conditionalRelease only drops the frame on one branch.
func conditionalRelease(b []byte, drop bool) {
	f := transport.NewSharedFrame(b) // want `frame "f" can leak: a path reaches function exit still holding 1 reference\(s\)`
	if drop {
		f.Release()
	}
}

// --- annotated parameter contracts ---------------------------------------

// sendOwned consumes f on every path, releasing when the pump rejects.
//
//corona:owns f
func (s *Session) sendOwned(f *transport.SharedFrame, high bool) {
	if err := s.pump.SendShared(f, high); err != nil {
		f.Release()
	}
}

// sendLeaky claims ownership but never settles the rejection path.
//
//corona:owns f
func (s *Session) sendLeaky(f *transport.SharedFrame) {
	err := s.pump.SendShared(f, false) // want `SendShared error unchecked: the rejection path leaks frame "f"`
	_ = err
}

// peek borrows: reading is fine, releasing is not.
//
//corona:borrows f
func peek(f *transport.SharedFrame) int {
	return len(f.Bytes())
}

// stealer borrows but drops a reference it does not hold.
//
//corona:borrows f
func stealer(f *transport.SharedFrame) {
	f.Release() // want `"f" releases a reference it does not own`
}

// bareRelease releases an unannotated parameter: the contract is
// undeclared, so the reference is not this function's to drop.
func bareRelease(f *transport.SharedFrame) {
	f.Release() // want `"f" releases a reference it does not own`
}

// retainBalanced borrows, takes its own reference, and drops it.
//
//corona:borrows f
func (s *Session) retainBalanced(f *transport.SharedFrame) {
	f.Retain()
	if err := s.pump.SendShared(f, false); err != nil {
		f.Release()
	}
}

// badAnnotation names a parameter that does not exist.
//
//corona:owns g
func badAnnotation(f *transport.SharedFrame) { // want `corona:owns names unknown parameter "g"`
	f.Retain()
	f.Release()
}

// wrongType annotates a parameter that is not a frame.
//
//corona:owns n
func wrongType(n int) { // want `corona:owns parameter "n" is not a \*transport\.SharedFrame`
	_ = n
}

// --- transfer to annotated callees ---------------------------------------

// fanLoop is the fanout shape: one constructor reference, one Retain per
// receiver balanced by the owning callee, final Release.
func (s *Session) fanLoop(subs []*Session, b []byte) {
	frame := transport.NewSharedFrame(b)
	for _, sub := range subs {
		frame.Retain()
		sub.sendOwned(frame, false)
	}
	frame.Release()
}

// perIterLeak creates a frame every iteration and settles it on neither
// path.
func (s *Session) perIterLeak(subs []*Session, b []byte) {
	for _, sub := range subs {
		f := transport.NewSharedFrame(b) // want `frame "f" can leak: a loop iteration ends still holding 1 reference\(s\)`
		if err := sub.pump.SendShared(f, false); err != nil {
			_ = err
		}
	}
}

// perIterClean mirrors the real transfer-chunk loop: created, sent,
// released on rejection, every iteration.
func (s *Session) perIterClean(bs [][]byte) {
	for _, b := range bs {
		f := transport.NewSharedFrame(b)
		if err := s.pump.SendShared(f, false); err != nil {
			f.Release()
			return
		}
	}
}

// --- run admission -------------------------------------------------------

// runGood releases the unadmitted suffix after prefix admission.
func (s *Session) runGood(fs []*transport.SharedFrame) {
	admitted, err := s.pump.SendSharedRun(fs, false)
	if err != nil {
		for k := admitted; k < len(fs); k++ {
			fs[k].Release()
		}
	}
}

// runBad bails out of the rejection branch without releasing anything.
func (s *Session) runBad(fs []*transport.SharedFrame) {
	if _, err := s.pump.SendSharedRun(fs, true); err != nil { // want `SendSharedRun rejection path must release the unsent frames of "fs"`
		return
	}
}

// runDiscard ignores prefix admission entirely.
func (s *Session) runDiscard(fs []*transport.SharedFrame) {
	s.pump.SendSharedRun(fs, false) // want `SendSharedRun error discarded: the rejection path leaks`
}

// runUnchecked stores the error and walks away.
func (s *Session) runUnchecked(fs []*transport.SharedFrame) error {
	_, err := s.pump.SendSharedRun(fs, false) // want `SendSharedRun error unchecked: rejected frames leak`
	return err
}

// runReleaseAll keeps the all-or-nothing habit: it releases the whole slice
// on rejection, the admitted prefix — now the pump's — included.
func (s *Session) runReleaseAll(fs []*transport.SharedFrame) {
	if _, err := s.pump.SendSharedRun(fs, false); err != nil { // want `SendSharedRun rejection path must release the unsent frames of "fs"`
		for _, f := range fs {
			f.Release()
		}
	}
}

// --- escapes stay silent --------------------------------------------------

type holder struct {
	f *transport.SharedFrame
}

// escapes stores the frame: ownership follows the holder, not this
// function, so refsafe stops tracking without complaint.
func escapes(b []byte) *holder {
	f := transport.NewSharedFrame(b)
	return &holder{f: f}
}

// escapesField assigns into a field.
func escapesField(h *holder, b []byte) {
	f := transport.NewSharedFrame(b)
	h.f = f
}

// escapesClosure captures the frame in a goroutine.
func escapesClosure(b []byte, sink func(*transport.SharedFrame)) {
	f := transport.NewSharedFrame(b)
	go func() { sink(f) }()
}

// suppressed demonstrates a reviewed exception: the leak diagnostic
// anchors at the constructor, so the allow covers that line.
func suppressed(b []byte) {
	//lint:allow refsafe fixture: reviewed leak, reclaimed by process exit
	f := transport.NewSharedFrame(b)
	f.Retain()
}
