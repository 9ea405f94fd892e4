package wire

// This file defines the client↔server messages. Every request carries a
// client-assigned RequestID echoed by the matching reply so a client can
// pipeline requests over one connection.

// Hello opens a session. It is the first message on a client connection.
type Hello struct {
	RequestID uint64
	// Proto is the client's protocol version.
	Proto uint32
	// Name is a human-readable client name surfaced in membership info.
	Name string
}

// Kind implements Message.
func (*Hello) Kind() Kind { return KindHello }

// Encode implements Message.
func (m *Hello) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutUint32(m.Proto)
	e.PutString(m.Name)
}

// Decode implements Message.
func (m *Hello) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.Proto = d.Uint32()
	m.Name = d.String()
	return d.Err()
}

// HelloAck completes session setup and assigns the client its ID.
type HelloAck struct {
	RequestID uint64
	ClientID  uint64
	// ServerID names the serving process (useful against a replicated
	// service, where clients of different servers compare notes).
	ServerID uint64
}

// Kind implements Message.
func (*HelloAck) Kind() Kind { return KindHelloAck }

// Encode implements Message.
func (m *HelloAck) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutUvarint(m.ClientID)
	e.PutUvarint(m.ServerID)
}

// Decode implements Message.
func (m *HelloAck) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.ClientID = d.Uvarint()
	m.ServerID = d.Uvarint()
	return d.Err()
}

// CreateGroup creates a group with an optional initial shared state.
type CreateGroup struct {
	RequestID  uint64
	Group      string
	Persistent bool
	// Initial is the initial shared state: a set of objects.
	Initial []Object
}

// Kind implements Message.
func (*CreateGroup) Kind() Kind { return KindCreateGroup }

// Encode implements Message.
func (m *CreateGroup) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutString(m.Group)
	e.PutBool(m.Persistent)
	EncodeObjects(e, m.Initial)
}

// Decode implements Message.
func (m *CreateGroup) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.Group = d.String()
	m.Persistent = d.Bool()
	m.Initial = DecodeObjects(d)
	return d.Err()
}

// CreateGroupAck confirms group creation.
type CreateGroupAck struct {
	RequestID uint64
}

// Kind implements Message.
func (*CreateGroupAck) Kind() Kind { return KindCreateGroupAck }

// Encode implements Message.
func (m *CreateGroupAck) Encode(e *Encoder) { e.PutUvarint(m.RequestID) }

// Decode implements Message.
func (m *CreateGroupAck) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	return d.Err()
}

// DeleteGroup deletes a group; its shared state is lost (paper §3.2: the
// service deletes a group only in response to deleteGroup).
type DeleteGroup struct {
	RequestID uint64
	Group     string
}

// Kind implements Message.
func (*DeleteGroup) Kind() Kind { return KindDeleteGroup }

// Encode implements Message.
func (m *DeleteGroup) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutString(m.Group)
}

// Decode implements Message.
func (m *DeleteGroup) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.Group = d.String()
	return d.Err()
}

// DeleteGroupAck confirms group deletion.
type DeleteGroupAck struct {
	RequestID uint64
}

// Kind implements Message.
func (*DeleteGroupAck) Kind() Kind { return KindDeleteGroupAck }

// Encode implements Message.
func (m *DeleteGroupAck) Encode(e *Encoder) { e.PutUvarint(m.RequestID) }

// Decode implements Message.
func (m *DeleteGroupAck) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	return d.Err()
}

// Join adds the client to a group and requests a state transfer. The join
// protocol involves only the client and the server, never the existing
// members.
type Join struct {
	RequestID uint64
	Group     string
	Policy    TransferPolicy
	Role      Role
	// Notify subscribes the client to membership-change notifications for
	// this group.
	Notify bool
	// CreateIfMissing implicitly creates a transient group on first join,
	// a convenience for publish/subscribe uses.
	CreateIfMissing bool
}

// Kind implements Message.
func (*Join) Kind() Kind { return KindJoin }

// Encode implements Message.
func (m *Join) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutString(m.Group)
	m.Policy.encode(e)
	e.PutByte(byte(m.Role))
	e.PutBool(m.Notify)
	e.PutBool(m.CreateIfMissing)
}

// Decode implements Message.
func (m *Join) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.Group = d.String()
	m.Policy = decodeTransferPolicy(d)
	m.Role = Role(d.Byte())
	m.Notify = d.Bool()
	m.CreateIfMissing = d.Bool()
	return d.Err()
}

// JoinAck carries the requested state transfer and the current membership.
//
// Depending on the transfer policy, the state arrives as Objects (full or
// per-object snapshots), as Events (incremental updates), or both (resume
// from a checkpointed base). For large transfers the server instead sets
// Streaming and leaves Objects/Events empty: the payload follows as
// TransferChunk frames terminated by TransferDone, concurrently with live
// Delivers for seq >= NextSeq.
type JoinAck struct {
	RequestID uint64
	Group     string
	// NextSeq is the sequence number the first post-join delivery will
	// carry; everything the client needs before that is in this ack.
	NextSeq uint64
	// BaseSeq is the sequence number the snapshot Objects incorporate
	// (the group's checkpoint point; 0 if Objects reflect no events).
	BaseSeq uint64
	// Digest is the history digest at NextSeq-1 when the ack answers a
	// replica pull with a whole image; zero on an event suffix and on a
	// client's join, whose clients ignore it.
	Digest  uint64
	Objects []Object
	Events  []Event
	Members []MemberInfo
	// Streaming marks a chunked transfer: Objects and Events arrive in
	// subsequent TransferChunk frames instead of inline.
	Streaming bool
}

// Kind implements Message.
func (*JoinAck) Kind() Kind { return KindJoinAck }

// Encode implements Message.
func (m *JoinAck) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutString(m.Group)
	e.PutUvarint(m.NextSeq)
	e.PutUvarint(m.BaseSeq)
	e.PutUint64(m.Digest)
	EncodeObjects(e, m.Objects)
	EncodeEvents(e, m.Events)
	encodeMembers(e, m.Members)
	e.PutBool(m.Streaming)
}

// Decode implements Message.
func (m *JoinAck) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.Group = d.String()
	m.NextSeq = d.Uvarint()
	m.BaseSeq = d.Uvarint()
	m.Digest = d.Uint64()
	m.Objects = DecodeObjects(d)
	m.Events = DecodeEvents(d)
	m.Members = decodeMembers(d)
	m.Streaming = d.Bool()
	return d.Err()
}

// TransferChunk carries one contiguous slice of a streamed state-transfer
// payload. The concatenation of all chunks for a join, in offset order, is
// the standard encoding of the transfer's objects followed by its events
// (see TransferAssembler). Chunks for one join arrive in order on the
// member's connection.
type TransferChunk struct {
	// RequestID echoes the Join that opened the transfer.
	RequestID uint64
	Group     string
	// Offset is this chunk's starting byte position within the payload.
	Offset uint64
	// Total is the payload size in bytes, repeated in every chunk so
	// progress can be reported from any of them.
	Total uint64
	// Data is the chunk's bytes as read. Decode aliases the decode buffer,
	// valid only until the connection's next read; a receiver that takes
	// chunks in place (ReadTransferChunk) gets the slice it reserved for
	// the body, which the socket was read into.
	Data []byte
	// Segments, when non-nil, is encoded in place of Data: the chunk as a
	// TransferStream produced it, pieces of the shared payload buffers. The
	// wire bytes are those of Data set to the concatenation; decoding
	// always yields Data. A transfer frame points the socket write at the
	// large pieces and never concatenates them (transport.NewChunkFrame);
	// Encode gathers them, for a frame built from the message alone.
	Segments Segments
}

// Kind implements Message.
func (*TransferChunk) Kind() Kind { return KindTransferChunk }

// Encode implements Message.
func (m *TransferChunk) Encode(e *Encoder) {
	m.putHeader(e)
	if m.Segments != nil {
		e.PutSegments(m.Segments)
		return
	}
	e.PutBytes(m.Data)
}

// Decode implements Message.
func (m *TransferChunk) Decode(d *Decoder) error {
	m.decodeHeader(d)
	//lint:allow aliasretain Data documents the aliasing contract: valid until the connection's next read
	m.Data = d.Bytes()
	return d.Err()
}

// putHeader and decodeHeader code every field before the body.
func (m *TransferChunk) putHeader(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutString(m.Group)
	e.PutUvarint(m.Offset)
	e.PutUvarint(m.Total)
}

func (m *TransferChunk) decodeHeader(d *Decoder) {
	m.RequestID = d.Uvarint()
	m.Group = d.String()
	m.Offset = d.Uvarint()
	m.Total = d.Uvarint()
}

// TransferDone terminates a streamed state transfer: every chunk has been
// sent and the client may decode the reassembled payload.
type TransferDone struct {
	// RequestID echoes the Join that opened the transfer.
	RequestID uint64
	Group     string
	// Bytes is the total payload size; the client verifies it received
	// exactly this many bytes before decoding.
	Bytes uint64
}

// Kind implements Message.
func (*TransferDone) Kind() Kind { return KindTransferDone }

// Encode implements Message.
func (m *TransferDone) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutString(m.Group)
	e.PutUvarint(m.Bytes)
}

// Decode implements Message.
func (m *TransferDone) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.Group = d.String()
	m.Bytes = d.Uvarint()
	return d.Err()
}

// Leave removes the client from a group.
type Leave struct {
	RequestID uint64
	Group     string
}

// Kind implements Message.
func (*Leave) Kind() Kind { return KindLeave }

// Encode implements Message.
func (m *Leave) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutString(m.Group)
}

// Decode implements Message.
func (m *Leave) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.Group = d.String()
	return d.Err()
}

// LeaveAck confirms a leave.
type LeaveAck struct {
	RequestID uint64
}

// Kind implements Message.
func (*LeaveAck) Kind() Kind { return KindLeaveAck }

// Encode implements Message.
func (m *LeaveAck) Encode(e *Encoder) { e.PutUvarint(m.RequestID) }

// Decode implements Message.
func (m *LeaveAck) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	return d.Err()
}

// GetMembership asks for the current membership of a group (paper §3.2: a
// member may query the service for membership information at any time).
type GetMembership struct {
	RequestID uint64
	Group     string
}

// Kind implements Message.
func (*GetMembership) Kind() Kind { return KindGetMembership }

// Encode implements Message.
func (m *GetMembership) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutString(m.Group)
}

// Decode implements Message.
func (m *GetMembership) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.Group = d.String()
	return d.Err()
}

// MembershipInfo answers GetMembership.
type MembershipInfo struct {
	RequestID uint64
	Group     string
	Members   []MemberInfo
}

// Kind implements Message.
func (*MembershipInfo) Kind() Kind { return KindMembershipInfo }

// Encode implements Message.
func (m *MembershipInfo) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutString(m.Group)
	encodeMembers(e, m.Members)
}

// Decode implements Message.
func (m *MembershipInfo) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.Group = d.String()
	m.Members = decodeMembers(d)
	return d.Err()
}

// MembershipNotify is pushed to subscribed members when a group's
// membership changes.
type MembershipNotify struct {
	Group  string
	Change MembershipChange
	Member MemberInfo
	// Count is the group size after the change.
	Count uint32
}

// Kind implements Message.
func (*MembershipNotify) Kind() Kind { return KindMembershipNotify }

// Encode implements Message.
func (m *MembershipNotify) Encode(e *Encoder) {
	e.PutString(m.Group)
	e.PutByte(byte(m.Change))
	m.Member.encode(e)
	e.PutUint32(m.Count)
}

// Decode implements Message.
func (m *MembershipNotify) Decode(d *Decoder) error {
	m.Group = d.String()
	m.Change = MembershipChange(d.Byte())
	m.Member = decodeMemberInfo(d)
	m.Count = d.Uint32()
	return d.Err()
}

// Bcast submits a multicast to the group. Kind selects bcastState (replace
// the object's state) or bcastUpdate (append an incremental change).
type Bcast struct {
	RequestID uint64
	Group     string
	EvKind    EventKind
	ObjectID  string
	Data      []byte
	// SenderInclusive asks the service to deliver the message back to the
	// sender too (with the server-assigned timestamp and sequence number).
	SenderInclusive bool
}

// Kind implements Message.
func (*Bcast) Kind() Kind { return KindBcast }

// Encode implements Message.
func (m *Bcast) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutString(m.Group)
	e.PutByte(byte(m.EvKind))
	e.PutString(m.ObjectID)
	e.PutBytes(m.Data)
	e.PutBool(m.SenderInclusive)
}

// Decode implements Message.
func (m *Bcast) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.Group = d.String()
	m.EvKind = EventKind(d.Byte())
	m.ObjectID = d.String()
	m.Data = d.ByteCopy()
	m.SenderInclusive = d.Bool()
	return d.Err()
}

// BcastAck reports the sequence number assigned to a Bcast. It doubles as
// the sender's flow-control signal.
type BcastAck struct {
	RequestID uint64
	Seq       uint64
}

// Kind implements Message.
func (*BcastAck) Kind() Kind { return KindBcastAck }

// Encode implements Message.
func (m *BcastAck) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutUvarint(m.Seq)
}

// Decode implements Message.
func (m *BcastAck) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.Seq = d.Uvarint()
	return d.Err()
}

// Deliver pushes one sequenced group event to a member.
type Deliver struct {
	Group string
	Event Event
}

// Kind implements Message.
func (*Deliver) Kind() Kind { return KindDeliver }

// Encode implements Message.
func (m *Deliver) Encode(e *Encoder) {
	e.PutString(m.Group)
	m.Event.Encode(e)
}

// Decode implements Message.
func (m *Deliver) Decode(d *Decoder) error {
	m.Group = d.String()
	m.Event = DecodeEvent(d)
	return d.Err()
}

// DeliverBatch pushes a run of sequenced group events to a member in one
// frame. The events are in sequence order and carry the same guarantees as
// an equivalent run of Deliver frames — the batch is purely an ingest/fanout
// amortization, invisible to the ordering contract. A batch is never empty
// on the wire; decoding an empty one yields a nil Events slice.
type DeliverBatch struct {
	Group  string
	Events []Event
}

// Kind implements Message.
func (*DeliverBatch) Kind() Kind { return KindDeliverBatch }

// Encode implements Message.
func (m *DeliverBatch) Encode(e *Encoder) {
	e.PutString(m.Group)
	EncodeEvents(e, m.Events)
}

// Decode implements Message.
func (m *DeliverBatch) Decode(d *Decoder) error {
	m.Group = d.String()
	m.Events = DecodeEvents(d)
	return d.Err()
}

// LockAcquire requests a named lock within a group (paper §3.2: interfaces
// for synchronizing client updates through locks).
type LockAcquire struct {
	RequestID uint64
	Group     string
	Name      string
	// Wait queues the request behind the current holder instead of
	// failing immediately.
	Wait bool
}

// Kind implements Message.
func (*LockAcquire) Kind() Kind { return KindLockAcquire }

// Encode implements Message.
func (m *LockAcquire) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutString(m.Group)
	e.PutString(m.Name)
	e.PutBool(m.Wait)
}

// Decode implements Message.
func (m *LockAcquire) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.Group = d.String()
	m.Name = d.String()
	m.Wait = d.Bool()
	return d.Err()
}

// LockRelease releases a held lock.
type LockRelease struct {
	RequestID uint64
	Group     string
	Name      string
}

// Kind implements Message.
func (*LockRelease) Kind() Kind { return KindLockRelease }

// Encode implements Message.
func (m *LockRelease) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutString(m.Group)
	e.PutString(m.Name)
}

// Decode implements Message.
func (m *LockRelease) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.Group = d.String()
	m.Name = d.String()
	return d.Err()
}

// LockReply answers LockAcquire (possibly after queuing) and LockRelease.
type LockReply struct {
	RequestID uint64
	Granted   bool
	// Holder is the current lock owner when the request was denied.
	Holder uint64
}

// Kind implements Message.
func (*LockReply) Kind() Kind { return KindLockReply }

// Encode implements Message.
func (m *LockReply) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutBool(m.Granted)
	e.PutUvarint(m.Holder)
}

// Decode implements Message.
func (m *LockReply) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.Granted = d.Bool()
	m.Holder = d.Uvarint()
	return d.Err()
}

// ReduceLog asks the service to trim the group's update history up to
// UpToSeq, replacing it with the consistent state at that point (paper
// §3.2, state log reduction). UpToSeq of 0 means "up to the latest".
type ReduceLog struct {
	RequestID uint64
	Group     string
	UpToSeq   uint64
}

// Kind implements Message.
func (*ReduceLog) Kind() Kind { return KindReduceLog }

// Encode implements Message.
func (m *ReduceLog) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutString(m.Group)
	e.PutUvarint(m.UpToSeq)
}

// Decode implements Message.
func (m *ReduceLog) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.Group = d.String()
	m.UpToSeq = d.Uvarint()
	return d.Err()
}

// ReduceLogAck reports the group's new checkpoint base.
type ReduceLogAck struct {
	RequestID uint64
	// BaseSeq is the sequence number of the new checkpoint.
	BaseSeq uint64
	// Trimmed is the number of history entries discarded.
	Trimmed uint64
}

// Kind implements Message.
func (*ReduceLogAck) Kind() Kind { return KindReduceLogAck }

// Encode implements Message.
func (m *ReduceLogAck) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutUvarint(m.BaseSeq)
	e.PutUvarint(m.Trimmed)
}

// Decode implements Message.
func (m *ReduceLogAck) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.BaseSeq = d.Uvarint()
	m.Trimmed = d.Uvarint()
	return d.Err()
}

// ListGroups asks for the names of all groups known to the service.
type ListGroups struct {
	RequestID uint64
}

// Kind implements Message.
func (*ListGroups) Kind() Kind { return KindListGroups }

// Encode implements Message.
func (m *ListGroups) Encode(e *Encoder) { e.PutUvarint(m.RequestID) }

// Decode implements Message.
func (m *ListGroups) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	return d.Err()
}

// GroupList answers ListGroups.
type GroupList struct {
	RequestID uint64
	Groups    []string
}

// Kind implements Message.
func (*GroupList) Kind() Kind { return KindGroupList }

// Encode implements Message.
func (m *GroupList) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutUvarint(uint64(len(m.Groups)))
	for _, g := range m.Groups {
		e.PutString(g)
	}
}

// Decode implements Message.
func (m *GroupList) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	n := d.Uvarint()
	if d.Err() != nil {
		return d.Err()
	}
	if n > uint64(d.Remaining()) {
		return ErrShortBuffer
	}
	if n > 0 {
		m.Groups = make([]string, 0, n)
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			m.Groups = append(m.Groups, d.String())
		}
	}
	return d.Err()
}

// Ping is a liveness probe; either side may send it.
type Ping struct {
	Nonce uint64
}

// Kind implements Message.
func (*Ping) Kind() Kind { return KindPing }

// Encode implements Message.
func (m *Ping) Encode(e *Encoder) { e.PutUvarint(m.Nonce) }

// Decode implements Message.
func (m *Ping) Decode(d *Decoder) error {
	m.Nonce = d.Uvarint()
	return d.Err()
}

// Pong answers Ping, echoing the nonce.
type Pong struct {
	Nonce uint64
}

// Kind implements Message.
func (*Pong) Kind() Kind { return KindPong }

// Encode implements Message.
func (m *Pong) Encode(e *Encoder) { e.PutUvarint(m.Nonce) }

// Decode implements Message.
func (m *Pong) Decode(d *Decoder) error {
	m.Nonce = d.Uvarint()
	return d.Err()
}

// ErrorMsg reports a request failure. RequestID of 0 marks a connection-
// level error after which the peer will close.
type ErrorMsg struct {
	RequestID uint64
	Code      ErrCode
	Text      string
}

// Kind implements Message.
func (*ErrorMsg) Kind() Kind { return KindError }

// Encode implements Message.
func (m *ErrorMsg) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutUvarint(uint64(m.Code))
	e.PutString(m.Text)
}

// Decode implements Message.
func (m *ErrorMsg) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.Code = ErrCode(d.Uvarint())
	m.Text = d.String()
	return d.Err()
}
