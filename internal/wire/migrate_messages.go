package wire

// This file defines the placement messages around the replica pull. A
// group's state crosses between servers one way: the server that needs it
// dials the peer listener of a server that holds it and joins the group like
// a client — Hello, then Join — and reads the client's transfer: JoinAck,
// then TransferChunk... and TransferDone when the image is streamed. A live
// migration is the same pull, started at the target by the coordinator's
// SMigrate and reported with SMigrated.

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
