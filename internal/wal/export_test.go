package wal

// ReadPiece is how much of a segment recovery reads at a time, for the
// walker tests that lay records across piece boundaries.
const ReadPiece = readPiece

// ReadAhead is how many read pieces the walk may leave unreached, for the
// test that bounds the reads an open makes after its walk has quit.
const ReadAhead = readAhead

// NextLSN returns the LSN the next committed record will get.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// FirstLSN returns the LSN of the oldest retained record (equal to
// NextLSN when the log is empty).
func (l *Log) FirstLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segments) > 0 {
		return l.segments[0].first
	}
	return l.active.first
}
