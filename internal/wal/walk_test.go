package wal_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"corona/internal/faultfs"
	"corona/internal/wal"
)

// The walker tests lay records across the pieces recovery reads a segment
// in. The disk is slowed, so the walk catches up with the read-ahead at
// every piece: a walker that handed over a byte before it was read and
// checked would hand over the zeroes of the fresh buffer, which no payload
// here holds.

const recHdr = 8 // crc32 + length, as the log writes it

const piece = wal.ReadPiece

// piecePayload is the payload pieceLog writes at lsn: n bytes of a pattern
// of its own, none of them zero.
func piecePayload(lsn uint64, n int) []byte {
	var block [251]byte
	for j := range block {
		block[j] = byte(1 + (uint64(j)*31+lsn*17)%255)
	}
	return bytes.Repeat(block[:], n/len(block)+1)[:n]
}

// pieceLog writes one segment file per entry of segs, each holding records
// of the given payload sizes, in LSN order from 0, in the log's record
// format (TestRecordFormatPin). It returns the directory and the segment
// files in order and every record's payload size, by LSN.
func pieceLog(t *testing.T, segs ...[]int) (dir string, files []string, sizes []int) {
	t.Helper()
	dir = t.TempDir()
	crcTable := crc32.MakeTable(crc32.Castagnoli)
	lsn := uint64(0)
	for _, seg := range segs {
		var data []byte
		name := filepath.Join(dir, fmt.Sprintf("%016x.seg", lsn))
		for _, n := range seg {
			p := piecePayload(lsn, n)
			data = binary.BigEndian.AppendUint32(data, crc32.Checksum(p, crcTable))
			data = binary.BigEndian.AppendUint32(data, uint32(n))
			data = append(data, p...)
			sizes = append(sizes, n)
			lsn++
		}
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, name)
	}
	return dir, files, sizes
}

// walkLog opens the log in dir over a slowed disk and returns the records
// handed over, or the open's error.
func walkLog(t *testing.T, dir string, fs *faultfs.FS) ([]record, error) {
	t.Helper()
	fs.SetLatency(2 * time.Millisecond)
	var got []record
	l, err := wal.Recover(wal.Options{Dir: dir, FS: fs}, func(lsn uint64, payload []byte) error {
		got = append(got, record{lsn, payload})
		return nil
	})
	if err != nil {
		return got, err
	}
	return got, l.Close()
}

// wantRecords is the records of lsns, as pieceLog wrote them.
func wantRecords(sizes []int, lsns ...uint64) []record {
	var out []record
	for _, lsn := range lsns {
		out = append(out, record{lsn, piecePayload(lsn, sizes[lsn])})
	}
	return out
}

// checkWalk fails the test unless the open handed over exactly want.
func checkWalk(t *testing.T, got, want []record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("the open handed over %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].lsn != want[i].lsn || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("record %d: lsn %d, %d bytes (%d zero); want lsn %d, %d bytes",
				i, got[i].lsn, len(got[i].payload), bytes.Count(got[i].payload, []byte{0}), want[i].lsn, len(want[i].payload))
		}
	}
}

// offsets is where each record of one segment starts, and the segment's end.
func offsets(sizes []int) []int {
	at := []int{0}
	for _, n := range sizes {
		at = append(at, at[len(at)-1]+recHdr+n)
	}
	return at
}

// TestWalkRecordAcrossPieces: records that straddle one piece boundary, and
// one that spans three pieces, are handed over whole and intact, and the
// walk goes on into the next segment; the open cuts nothing.
func TestWalkRecordAcrossPieces(t *testing.T) {
	seg := []int{piece / 2, piece / 2, 2*piece + 100, 10}
	at := offsets(seg)
	if !(at[1] < piece && at[2] > piece) || !(at[2] < 2*piece && at[3] > 3*piece) {
		t.Fatalf("records at %v do not straddle the pieces as the test means", at)
	}
	dir, _, sizes := pieceLog(t, seg, []int{300, 5})
	before := segmentFiles(t, dir)
	got, err := walkLog(t, dir, faultfs.New(1))
	if err != nil {
		t.Fatal(err)
	}
	checkWalk(t, got, wantRecords(sizes, 0, 1, 2, 3, 4, 5))
	if after := segmentFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("an open of an intact log changed it")
	}
}

// TestWalkSegmentOfWholePieces: segments exactly one and two pieces long —
// one whose records end on the piece boundary, one with a record across it
// — are read to their end and not cut, and the next segment follows.
func TestWalkSegmentOfWholePieces(t *testing.T) {
	segs := [][]int{{piece - recHdr, piece - recHdr}, {piece / 2, piece/2 - 2*recHdr}, {piece / 2, piece / 2, piece - 3*recHdr}, {100}}
	for i, seg := range segs[:3] {
		if end := offsets(seg)[len(seg)]; end%piece != 0 {
			t.Fatalf("segment %d is %d bytes, not whole pieces", i, end)
		}
	}
	dir, _, sizes := pieceLog(t, segs...)
	before := segmentFiles(t, dir)
	got, err := walkLog(t, dir, faultfs.New(2))
	if err != nil {
		t.Fatal(err)
	}
	checkWalk(t, got, wantRecords(sizes, 0, 1, 2, 3, 4, 5, 6, 7))
	if after := segmentFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("an open of an intact log changed it")
	}
}

// TestWalkTornTailInLastPiece: a segment whose last record, in its last
// piece, is torn hands over every record before it and is cut back to
// them; a second open agrees and cuts nothing more.
func TestWalkTornTailInLastPiece(t *testing.T) {
	seg := []int{piece / 2, piece / 2, piece / 2, piece / 2, 1000}
	at := offsets(seg)
	if at[4] < 2*piece {
		t.Fatalf("the torn record starts at %d, not in the last piece", at[4])
	}
	dir, files, sizes := pieceLog(t, seg)
	if err := os.Truncate(files[0], int64(at[5]-3)); err != nil {
		t.Fatal(err)
	}
	for k := range 2 {
		got, err := walkLog(t, dir, faultfs.New(3))
		if err != nil {
			t.Fatal(err)
		}
		checkWalk(t, got, wantRecords(sizes, 0, 1, 2, 3))
		if info, err := os.Stat(files[0]); err != nil || info.Size() != int64(at[4]) {
			t.Fatalf("open %d: the torn segment is %v bytes (%v), want its intact %d", k, info.Size(), err, at[4])
		}
	}
}

// TestWalkBadCRCMidSegment: a record whose CRC fails in a segment's first
// piece ends that segment's walk — its successors, whole and intact in
// later pieces, are not handed over, and the segment is cut before it —
// while the next segment's records are.
func TestWalkBadCRCMidSegment(t *testing.T) {
	seg := []int{1000, 1000, piece, piece, 1000}
	at := offsets(seg)
	dir, files, sizes := pieceLog(t, seg, []int{100, 200})
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[at[1]+recHdr+500] ^= 0x5A
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	next, err := os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	got, err := walkLog(t, dir, faultfs.New(4))
	if err != nil {
		t.Fatal(err)
	}
	checkWalk(t, got, wantRecords(sizes, 0, 5, 6))
	if info, err := os.Stat(files[0]); err != nil || info.Size() != int64(at[1]) {
		t.Fatalf("the corrupt segment is %v bytes (%v), want %d", info.Size(), err, at[1])
	}
	if after, err := os.ReadFile(files[1]); err != nil || !bytes.Equal(after, next) {
		t.Fatalf("the segment after the corrupt one changed (%v)", err)
	}
}

// TestWalkReadErrorOnSecondPiece: a read that fails on a segment's second
// piece fails the open, after handing over only the records wholly in the
// first, and leaves every file byte-identical; a healed open hands over
// every record.
func TestWalkReadErrorOnSecondPiece(t *testing.T) {
	seg := []int{piece / 2, piece / 2, piece / 2}
	if at := offsets(seg); !(at[1] < piece && at[2] > piece) {
		t.Fatalf("records at %v: only the first should lie in the first piece", at)
	}
	dir, _, sizes := pieceLog(t, seg, []int{100})
	before := segmentFiles(t, dir)
	fs := faultfs.New(5)
	fs.Inject(faultfs.Rule{Op: faultfs.OpRead, After: 1, Count: 1, Err: errors.New("EIO")})
	got, err := walkLog(t, dir, fs)
	if err == nil {
		t.Fatal("the open succeeded over a failed read")
	}
	checkWalk(t, got, wantRecords(sizes, 0))
	if after := segmentFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("a failed read changed the log")
	}
	got, err = walkLog(t, dir, faultfs.New(6))
	if err != nil {
		t.Fatal(err)
	}
	checkWalk(t, got, wantRecords(sizes, 0, 1, 2, 3))
}

// TestWalkStopsReadingOnceQuit: once the walk has quit, the read-ahead
// finishes at most the piece it is reading and reads nothing more. fn
// quits at the first record of a log of one-piece segments: that piece,
// the pieces queued ahead of the walk and the one waiting to be queued are
// all the open may read, however the read-ahead and the walk interleave.
func TestWalkStopsReadingOnceQuit(t *testing.T) {
	segs := make([][]int, 4*wal.ReadAhead)
	for i := range segs {
		segs[i] = []int{100}
	}
	dir, _, _ := pieceLog(t, segs...)
	quit := errors.New("quit")
	for k := range 100 {
		fs := faultfs.New(int64(10 + k))
		_, err := wal.Recover(wal.Options{Dir: dir, FS: fs}, func(uint64, []byte) error { return quit })
		if !errors.Is(err, quit) {
			t.Fatalf("open %d: %v, want the walk's error", k, err)
		}
		if n, most := fs.OpCount(faultfs.OpRead), 1+wal.ReadAhead+1; n > most {
			t.Fatalf("open %d: %d reads after the walk quit at the first record, want at most %d", k, n, most)
		}
	}
}
