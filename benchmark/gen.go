package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
)

const (
	// payloadSize is the paper's message size.
	payloadSize = 1000
	// headerSize is the part of a payload the harness reads back: lane,
	// counter and the due instant in nanoseconds since the run's epoch.
	headerSize = 20
	// cycleLen bounds server state: an object takes 15 bcastUpdates, then
	// one bcastState replaces them.
	cycleLen = 16
	// maxLanes bounds the senders of one run (2 connections × 8 lanes).
	maxLanes = 16
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// stream is the workload's input, a pure function of the seed: which
// objects the messages touch and what bytes they carry. The program sees
// only the generated messages, never the seed.
type stream struct {
	objects []string
	bodies  [][]byte
}

// newStream draws nObjects object IDs and a pool of payload bodies.
func newStream(seed int64, nObjects int) *stream {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{}
	seen := map[string]bool{}
	for len(s.objects) < nObjects {
		id := fmt.Sprintf("obj-%04x", rng.Intn(1<<16))
		if !seen[id] {
			seen[id] = true
			s.objects = append(s.objects, id)
		}
	}
	s.bodies = make([][]byte, 64)
	for i := range s.bodies {
		s.bodies[i] = make([]byte, payloadSize-headerSize)
		rng.Read(s.bodies[i])
	}
	return s
}

// blob returns n seeded bytes for pre-loaded state.
func blob(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// message is one generated multicast.
type message struct {
	kind   eventKind
	object string
	data   []byte
}

// msg writes message i of a lane into buf (at least payloadSize long) and
// returns it. Lane l walks the objects starting at its own offset, so
// lanes sharing a group spread over them.
func (s *stream) msg(lane uint32, i uint64, due int64, buf []byte) message {
	m := message{kind: kindUpdate, data: buf[:payloadSize]}
	if i%cycleLen == cycleLen-1 {
		m.kind = kindState
	}
	m.object = s.objects[(i/cycleLen+uint64(lane))%uint64(len(s.objects))]
	binary.LittleEndian.PutUint32(m.data[0:], lane)
	binary.LittleEndian.PutUint64(m.data[4:], i)
	binary.LittleEndian.PutUint64(m.data[12:], uint64(due))
	copy(m.data[headerSize:], s.bodies[(i*7+uint64(lane))%uint64(len(s.bodies))])
	return m
}

// header reads back what msg stamped; ok is false for foreign payloads.
func header(data []byte) (lane uint32, i uint64, due int64, ok bool) {
	if len(data) < headerSize {
		return 0, 0, 0, false
	}
	lane = binary.LittleEndian.Uint32(data[0:])
	return lane, binary.LittleEndian.Uint64(data[4:]), int64(binary.LittleEndian.Uint64(data[12:])), lane < maxLanes
}

func checksum(data []byte) uint32 { return crc32.Checksum(data, crcTable) }
