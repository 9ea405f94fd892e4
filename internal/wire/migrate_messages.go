package wire

// This file defines the replica stream and the placement messages around it.
// A group's state crosses between servers one way: the server that needs it
// dials the peer listener of a server that holds it, sends an SStateRequest,
// and reads SMigrateOffer, SMigrateChunk..., SMigrateCutover — the chunked
// state-transfer encoding, so the move is zero-copy on the source and
// bounded-memory on the wire. A live migration is the same pull, started at
// the target by the coordinator's SMigrate and reported with SMigrated.

// LoadReport is a server's lightweight load summary, piggybacked on every
// server→coordinator SHeartbeat so the placement manager can weigh servers
// without extra round trips. The counters come from the engine's obs gauges,
// so assembling a report is a handful of atomic loads.
type LoadReport struct {
	// Groups is the number of group replicas the server hosts.
	Groups uint64
	// Sessions is the number of connected client sessions.
	Sessions uint64
	// Bcasts is the cumulative count of multicasts the server has
	// delivered; the coordinator differentiates consecutive reports into a
	// rate.
	Bcasts uint64
}

func (l LoadReport) encode(e *Encoder) {
	e.PutUvarint(l.Groups)
	e.PutUvarint(l.Sessions)
	e.PutUvarint(l.Bcasts)
}

func decodeLoadReport(d *Decoder) LoadReport {
	return LoadReport{
		Groups:   d.Uvarint(),
		Sessions: d.Uvarint(),
		Bcasts:   d.Uvarint(),
	}
}

// SMigrate directs a target server to acquire a replica from a named source
// (coordinator → target). It carries a locator answer, so the target pulls
// without asking where.
type SMigrate struct {
	RequestID uint64
	// Source is what the coordinator would answer the target's own
	// SStateRequest, with the source fixed to the migration's origin.
	Source SStateResponse
}

// Kind implements Message.
func (*SMigrate) Kind() Kind { return KindSMigrate }

// Encode implements Message.
func (m *SMigrate) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	m.Source.Encode(e)
}

// Decode implements Message.
func (m *SMigrate) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	return m.Source.Decode(d)
}

// SMigrateOffer opens a replica stream (source → puller). It carries the
// captured image's bounds so the puller can verify the reassembled payload
// before installing it, and — as a JoinAck does for a client — the group's
// membership. BaseSeq at or past the requested FromSeq means the source sent
// its whole image; below it, the payload is only the events after BaseSeq.
type SMigrateOffer struct {
	BaseSeq uint64
	NextSeq uint64
	// Digest is the source replica's history digest at NextSeq-1 (zero on
	// an event suffix, whose digest the receiving replica chains itself).
	Digest uint64
	// Total is the transfer payload size in bytes.
	Total uint64
	// Members is the source registry's member list, read with the image:
	// the group's global membership at the capture, which the puller's
	// registry takes with the image.
	Members []MemberInfo
}

// Kind implements Message.
func (*SMigrateOffer) Kind() Kind { return KindSMigrateOffer }

// Encode implements Message.
func (m *SMigrateOffer) Encode(e *Encoder) {
	e.PutUvarint(m.BaseSeq)
	e.PutUvarint(m.NextSeq)
	e.PutUint64(m.Digest)
	e.PutUvarint(m.Total)
	encodeMembers(e, m.Members)
}

// Decode implements Message.
func (m *SMigrateOffer) Decode(d *Decoder) error {
	m.BaseSeq = d.Uvarint()
	m.NextSeq = d.Uvarint()
	m.Digest = d.Uint64()
	m.Total = d.Uvarint()
	m.Members = decodeMembers(d)
	return d.Err()
}

// SMigrateChunk carries one chunk of the stream's payload (source → puller),
// encoded exactly like a client TransferChunk payload.
type SMigrateChunk struct {
	// Offset is this chunk's starting byte position within the payload.
	Offset uint64
	// Data is the chunk's bytes as decoded. It aliases the decode buffer:
	// it is valid only until the connection's next read. The receiver
	// appends it to its reassembly buffer immediately, so a per-chunk
	// defensive copy would only double the transfer's allocation volume.
	Data []byte
	// Segments, when non-nil, is encoded in place of Data, exactly as in
	// TransferChunk.
	Segments Segments
}

// Kind implements Message.
func (*SMigrateChunk) Kind() Kind { return KindSMigrateChunk }

// Encode implements Message.
func (m *SMigrateChunk) Encode(e *Encoder) {
	e.PutUvarint(m.Offset)
	putChunkData(e, m.Data, m.Segments)
}

// Decode implements Message.
func (m *SMigrateChunk) Decode(d *Decoder) error {
	m.Offset = d.Uvarint()
	//lint:allow aliasretain Data documents the aliasing contract: valid until the next read, appended immediately
	m.Data = d.Bytes()
	return d.Err()
}

// SMigrateCutover terminates the replica stream (source → puller). It
// repeats the image's sequence high-water mark and digest so the puller can
// prove the reassembled state is exactly the captured image before cutting
// over; events sequenced after NextSeq-1 reach it through the ordinary
// distribute/catch-up path, keeping per-group order gapless.
type SMigrateCutover struct {
	NextSeq uint64
	Digest  uint64
}

// Kind implements Message.
func (*SMigrateCutover) Kind() Kind { return KindSMigrateCutover }

// Encode implements Message.
func (m *SMigrateCutover) Encode(e *Encoder) {
	e.PutUvarint(m.NextSeq)
	e.PutUint64(m.Digest)
}

// Decode implements Message.
func (m *SMigrateCutover) Decode(d *Decoder) error {
	m.NextSeq = d.Uvarint()
	m.Digest = d.Uint64()
	return d.Err()
}

// SMigrated reports a finished migration to the coordinator (target →
// coordinator), successful or not, so the placement manager can retire its
// in-flight record and, on success, direct the source to release.
type SMigrated struct {
	RequestID uint64
	Group     string
	OK        bool
	Text      string
	// Bytes is the payload volume pulled from the source.
	Bytes uint64
}

// Kind implements Message.
func (*SMigrated) Kind() Kind { return KindSMigrated }

// Encode implements Message.
func (m *SMigrated) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutString(m.Group)
	e.PutBool(m.OK)
	e.PutString(m.Text)
	e.PutUvarint(m.Bytes)
}

// Decode implements Message.
func (m *SMigrated) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.Group = d.String()
	m.OK = d.Bool()
	m.Text = d.String()
	m.Bytes = d.Uvarint()
	return d.Err()
}
