package wal

// ReadPiece is how much of a segment recovery reads at a time, for the
// walker tests that lay records across piece boundaries.
const ReadPiece = readPiece

// ReadAhead is how many read pieces the walk may leave unreached, for the
// test that bounds the reads an open makes after its walk has quit.
const ReadAhead = readAhead
