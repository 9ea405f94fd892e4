// Package transport is a refsafe fixture stub with the same shapes as the
// real transport package: a refcounted SharedFrame and the Pump's
// conditional-transfer send entry points. Bodies are inert — refsafe
// matches these by package name, type name, and method name.
package transport

import "errors"

// ErrPumpClosed mirrors the real sentinel.
var ErrPumpClosed = errors.New("pump closed")

type SharedFrame struct {
	buf     []byte
	onFinal func()
}

func NewSharedFrame(b []byte) *SharedFrame { return &SharedFrame{buf: b} }

type TransferChunk struct{ Segments [][]byte }

func NewChunkFrame(m *TransferChunk, onFinal func()) *SharedFrame {
	return &SharedFrame{onFinal: onFinal}
}

func (f *SharedFrame) Retain()       {}
func (f *SharedFrame) Release()      {}
func (f *SharedFrame) Bytes() []byte { return f.buf }

type Pump struct{ closed bool }

func (p *Pump) SendShared(f *SharedFrame, high bool) error { return nil }

func (p *Pump) SendSharedRun(fs []*SharedFrame, high bool) (int, error) { return len(fs), nil }
