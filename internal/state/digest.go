package state

import (
	"encoding/binary"
	"math/bits"

	"corona/internal/wire"
)

// DigestEvent folds one event into a history digest. The chain is
// deterministic across replicas: every sequencer and replica computing it
// over the same events gets the same value. One fold is three xxHash64 calls,
// each seeded with the result of the one before:
//
//	h := xxh64(seq as 8 bytes little-endian ‖ kind as 1 byte, digest)
//	h  = xxh64(objectID, h)
//	return xxh64(data, h)
//
// Each call mixes in the length of its own input, so the object ID and the
// data are delimited whatever bytes they hold. Sender and Time are not folded.
// The values are stored in checkpoint records and exchanged between servers,
// so TestDigestGolden pins them: changing this function is a format change.
func DigestEvent(digest uint64, ev wire.Event) uint64 {
	var hdr [9]byte
	binary.LittleEndian.PutUint64(hdr[:8], ev.Seq)
	hdr[8] = byte(ev.Kind)
	return xxh64(ev.Data, xxh64(ev.ObjectID, xxh64(hdr[:], digest)))
}

// The xxHash64 primes.
const (
	prime1 uint64 = 0x9E3779B185EBCA87
	prime2 uint64 = 0xC2B2AE3D27D4EB4F
	prime3 uint64 = 0x165667B19E3779F9
	prime4 uint64 = 0x85EBCA77C2B2AE63
	prime5 uint64 = 0x27D4EB2F165667C5
)

// xxh64 is XXH64(b, seed) as the xxHash specification defines it
// (github.com/Cyan4973/xxHash, doc/xxhash_spec.md): four accumulators over
// 32-byte stripes, then 8-, 4- and 1-byte tails, then an avalanche. It reads
// strings and byte slices alike so that hashing an object ID copies nothing.
func xxh64[T string | []byte](b T, seed uint64) uint64 {
	n := len(b)
	h := seed + prime5
	if n >= 32 {
		v1, v2, v3, v4 := seed+prime1+prime2, seed+prime2, seed, seed-prime1
		for ; len(b) >= 32; b = b[32:] {
			v1 = xxhRound(v1, le64(b[0:8]))
			v2 = xxhRound(v2, le64(b[8:16]))
			v3 = xxhRound(v3, le64(b[16:24]))
			v4 = xxhRound(v4, le64(b[24:32]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) + bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = xxhMerge(h, v1)
		h = xxhMerge(h, v2)
		h = xxhMerge(h, v3)
		h = xxhMerge(h, v4)
	}
	h += uint64(n)
	for ; len(b) >= 8; b = b[8:] {
		h ^= xxhRound(0, le64(b[0:8]))
		h = bits.RotateLeft64(h, 27)*prime1 + prime4
	}
	if len(b) >= 4 {
		h ^= uint64(le32(b[0:4])) * prime1
		h = bits.RotateLeft64(h, 23)*prime2 + prime3
		b = b[4:]
	}
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i]) * prime5
		h = bits.RotateLeft64(h, 11) * prime1
	}
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

func xxhRound(acc, lane uint64) uint64 {
	acc += lane * prime2
	return bits.RotateLeft64(acc, 31) * prime1
}

func xxhMerge(acc, v uint64) uint64 {
	acc ^= xxhRound(0, v)
	return acc*prime1 + prime4
}

// le64 and le32 read little-endian words; the compiler merges the byte loads
// into one.
func le64[T string | []byte](b T) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func le32[T string | []byte](b T) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
