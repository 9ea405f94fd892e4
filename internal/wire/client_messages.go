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

// Fields implements Message.
func (m *Hello) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.Uint32(&m.Proto)
	c.String(&m.Name)
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

// Fields implements Message.
func (m *HelloAck) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.Uvarint(&m.ClientID)
	c.Uvarint(&m.ServerID)
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

// Fields implements Message.
func (m *CreateGroup) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.String(&m.Group)
	c.Bool(&m.Persistent)
	List(c, &m.Initial, (*Object).Fields)
}

// CreateGroupAck confirms group creation.
type CreateGroupAck struct {
	RequestID uint64
}

// Kind implements Message.
func (*CreateGroupAck) Kind() Kind { return KindCreateGroupAck }

// Fields implements Message.
func (m *CreateGroupAck) Fields(c *Codec) { c.Uvarint(&m.RequestID) }

// DeleteGroup deletes a group; its shared state is lost (paper §3.2: the
// service deletes a group only in response to deleteGroup).
type DeleteGroup struct {
	RequestID uint64
	Group     string
}

// Kind implements Message.
func (*DeleteGroup) Kind() Kind { return KindDeleteGroup }

// Fields implements Message.
func (m *DeleteGroup) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.String(&m.Group)
}

// DeleteGroupAck confirms group deletion.
type DeleteGroupAck struct {
	RequestID uint64
}

// Kind implements Message.
func (*DeleteGroupAck) Kind() Kind { return KindDeleteGroupAck }

// Fields implements Message.
func (m *DeleteGroupAck) Fields(c *Codec) { c.Uvarint(&m.RequestID) }

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

// Fields implements Message.
func (m *Join) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.String(&m.Group)
	m.Policy.Fields(c)
	Byte(c, &m.Role)
	c.Bool(&m.Notify)
	c.Bool(&m.CreateIfMissing)
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

// Fields implements Message.
func (m *JoinAck) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.String(&m.Group)
	c.Uvarint(&m.NextSeq)
	c.Uvarint(&m.BaseSeq)
	c.Uint64(&m.Digest)
	List(c, &m.Objects, (*Object).Fields)
	List(c, &m.Events, (*Event).Fields)
	List(c, &m.Members, (*MemberInfo).Fields)
	c.Bool(&m.Streaming)
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
	// Data is the chunk's bytes as read. A read aliases the input buffer,
	// valid only until the connection's next read; a receiver that takes
	// chunks in place (ReadTransferChunk) gets the slice it reserved for
	// the body, which the socket was read into.
	Data []byte
	// Segments, when non-nil, is encoded in place of Data: the chunk as a
	// TransferStream produced it, pieces of the shared payload buffers. The
	// wire bytes are those of Data set to the concatenation; decoding
	// always yields Data. A transfer frame points the socket write at the
	// large pieces and never concatenates them (transport.NewChunkFrame);
	// Fields gathers them, for a frame built from the message alone.
	Segments Segments
}

// Kind implements Message.
func (*TransferChunk) Kind() Kind { return KindTransferChunk }

// Fields implements Message. A chunk keeps a hand-written half for each
// direction past its header: a write gathers Segments when they are set, and
// a read aliases Data to the input instead of copying it, handing the chunk
// off whole so the alias travels in a composite literal, as aliasretain
// requires.
func (m *TransferChunk) Fields(c *Codec) {
	m.header(c)
	switch {
	case c.read:
		*m = TransferChunk{RequestID: m.RequestID, Group: m.Group, Offset: m.Offset, Total: m.Total, Data: c.BytesAlias()}
	case m.Segments != nil:
		c.putSegments(m.Segments)
	default:
		c.ByteCopy(&m.Data)
	}
}

// header codes every field before the body.
func (m *TransferChunk) header(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.String(&m.Group)
	c.Uvarint(&m.Offset)
	c.Uvarint(&m.Total)
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

// Fields implements Message.
func (m *TransferDone) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.String(&m.Group)
	c.Uvarint(&m.Bytes)
}

// Leave removes the client from a group.
type Leave struct {
	RequestID uint64
	Group     string
}

// Kind implements Message.
func (*Leave) Kind() Kind { return KindLeave }

// Fields implements Message.
func (m *Leave) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.String(&m.Group)
}

// LeaveAck confirms a leave.
type LeaveAck struct {
	RequestID uint64
}

// Kind implements Message.
func (*LeaveAck) Kind() Kind { return KindLeaveAck }

// Fields implements Message.
func (m *LeaveAck) Fields(c *Codec) { c.Uvarint(&m.RequestID) }

// GetMembership asks for the current membership of a group (paper §3.2: a
// member may query the service for membership information at any time).
type GetMembership struct {
	RequestID uint64
	Group     string
}

// Kind implements Message.
func (*GetMembership) Kind() Kind { return KindGetMembership }

// Fields implements Message.
func (m *GetMembership) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.String(&m.Group)
}

// MembershipInfo answers GetMembership.
type MembershipInfo struct {
	RequestID uint64
	Group     string
	Members   []MemberInfo
}

// Kind implements Message.
func (*MembershipInfo) Kind() Kind { return KindMembershipInfo }

// Fields implements Message.
func (m *MembershipInfo) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.String(&m.Group)
	List(c, &m.Members, (*MemberInfo).Fields)
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

// Fields implements Message.
func (m *MembershipNotify) Fields(c *Codec) {
	c.String(&m.Group)
	Byte(c, &m.Change)
	m.Member.Fields(c)
	c.Uint32(&m.Count)
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

// Fields implements Message.
func (m *Bcast) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.String(&m.Group)
	Byte(c, &m.EvKind)
	c.String(&m.ObjectID)
	c.ByteCopy(&m.Data)
	c.Bool(&m.SenderInclusive)
}

// BcastAck reports the sequence number assigned to a Bcast. It doubles as
// the sender's flow-control signal.
type BcastAck struct {
	RequestID uint64
	Seq       uint64
}

// Kind implements Message.
func (*BcastAck) Kind() Kind { return KindBcastAck }

// Fields implements Message.
func (m *BcastAck) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.Uvarint(&m.Seq)
}

// Deliver pushes one sequenced group event to a member.
type Deliver struct {
	Group string
	Event Event
}

// Kind implements Message.
func (*Deliver) Kind() Kind { return KindDeliver }

// Fields implements Message.
func (m *Deliver) Fields(c *Codec) {
	c.String(&m.Group)
	m.Event.Fields(c)
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

// Fields implements Message.
func (m *DeliverBatch) Fields(c *Codec) {
	c.String(&m.Group)
	List(c, &m.Events, (*Event).Fields)
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

// Fields implements Message.
func (m *LockAcquire) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.String(&m.Group)
	c.String(&m.Name)
	c.Bool(&m.Wait)
}

// LockRelease releases a held lock.
type LockRelease struct {
	RequestID uint64
	Group     string
	Name      string
}

// Kind implements Message.
func (*LockRelease) Kind() Kind { return KindLockRelease }

// Fields implements Message.
func (m *LockRelease) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.String(&m.Group)
	c.String(&m.Name)
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

// Fields implements Message.
func (m *LockReply) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.Bool(&m.Granted)
	c.Uvarint(&m.Holder)
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

// Fields implements Message.
func (m *ReduceLog) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.String(&m.Group)
	c.Uvarint(&m.UpToSeq)
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

// Fields implements Message.
func (m *ReduceLogAck) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.Uvarint(&m.BaseSeq)
	c.Uvarint(&m.Trimmed)
}

// ListGroups asks for the names of all groups known to the service.
type ListGroups struct {
	RequestID uint64
}

// Kind implements Message.
func (*ListGroups) Kind() Kind { return KindListGroups }

// Fields implements Message.
func (m *ListGroups) Fields(c *Codec) { c.Uvarint(&m.RequestID) }

// GroupList answers ListGroups.
type GroupList struct {
	RequestID uint64
	Groups    []string
}

// Kind implements Message.
func (*GroupList) Kind() Kind { return KindGroupList }

// Fields implements Message.
func (m *GroupList) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	List(c, &m.Groups, codeString)
}

// Ping is a liveness probe; either side may send it.
type Ping struct {
	Nonce uint64
}

// Kind implements Message.
func (*Ping) Kind() Kind { return KindPing }

// Fields implements Message.
func (m *Ping) Fields(c *Codec) { c.Uvarint(&m.Nonce) }

// Pong answers Ping, echoing the nonce.
type Pong struct {
	Nonce uint64
}

// Kind implements Message.
func (*Pong) Kind() Kind { return KindPong }

// Fields implements Message.
func (m *Pong) Fields(c *Codec) { c.Uvarint(&m.Nonce) }

// ErrorMsg reports a request failure. RequestID of 0 marks a connection-
// level error after which the peer will close.
type ErrorMsg struct {
	RequestID uint64
	Code      ErrCode
	Text      string
}

// Kind implements Message.
func (*ErrorMsg) Kind() Kind { return KindError }

// Fields implements Message.
func (m *ErrorMsg) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	Narrow(c, &m.Code)
	c.String(&m.Text)
}
