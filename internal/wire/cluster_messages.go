package wire

import "fmt"

// This file defines the server↔server messages of the replicated service
// (paper §4): a star topology in which one server acts as coordinator and
// sequencer and the other servers are its clients.

// GroupOpKind enumerates group-registry operations propagated between
// servers.
type GroupOpKind uint8

// Group operations.
const (
	GroupOpCreate GroupOpKind = iota + 1
	GroupOpDelete
)

// SHello registers a server with the coordinator.
type SHello struct {
	RequestID uint64
	// Proto is the server's protocol version; the coordinator refuses a
	// server speaking another one.
	Proto uint32
	// ServerID is the registering server's stable identity.
	ServerID uint64
	// Addr is the address on which the server accepts peer connections.
	Addr string
	// Epoch is the highest coordinator epoch the server has seen, so a
	// rejoining server after a partition can be detected.
	Epoch uint64
}

// Kind implements Message.
func (*SHello) Kind() Kind { return KindSHello }

// Encode implements Message.
func (m *SHello) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutUint32(m.Proto)
	e.PutUvarint(m.ServerID)
	e.PutString(m.Addr)
	e.PutUvarint(m.Epoch)
}

// Decode implements Message.
func (m *SHello) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.Proto = d.Uint32()
	m.ServerID = d.Uvarint()
	m.Addr = d.String()
	m.Epoch = d.Uvarint()
	return d.Err()
}

// SHelloAck completes server registration and distributes the current
// server list.
type SHelloAck struct {
	RequestID     uint64
	CoordinatorID uint64
	Epoch         uint64
	// BootOrder is the order assigned to the registering server.
	BootOrder uint64
	Servers   []ServerInfo
}

// Kind implements Message.
func (*SHelloAck) Kind() Kind { return KindSHelloAck }

// Encode implements Message.
func (m *SHelloAck) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutUvarint(m.CoordinatorID)
	e.PutUvarint(m.Epoch)
	e.PutUvarint(m.BootOrder)
	encodeServers(e, m.Servers)
}

// Decode implements Message.
func (m *SHelloAck) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.CoordinatorID = d.Uvarint()
	m.Epoch = d.Uvarint()
	m.BootOrder = d.Uvarint()
	m.Servers = decodeServers(d)
	return d.Err()
}

// SForward carries a client multicast from a member server to the
// coordinator for sequencing. The Event's Seq and Time are unset; the
// coordinator assigns them.
type SForward struct {
	// Origin is the forwarding server.
	Origin uint64
	Group  string
	Event  Event
	// SenderInclusive mirrors the client's flag; when false the origin
	// server suppresses delivery back to Event.Sender.
	SenderInclusive bool
	// RequestID correlates the origin server's pending client ack.
	RequestID uint64
}

// Kind implements Message.
func (*SForward) Kind() Kind { return KindSForward }

// Encode implements Message.
func (m *SForward) Encode(e *Encoder) {
	e.PutUvarint(m.Origin)
	e.PutString(m.Group)
	m.Event.Encode(e)
	e.PutBool(m.SenderInclusive)
	e.PutUvarint(m.RequestID)
}

// Decode implements Message.
func (m *SForward) Decode(d *Decoder) error {
	m.Origin = d.Uvarint()
	m.Group = d.String()
	m.Event = DecodeEvent(d)
	m.SenderInclusive = d.Bool()
	m.RequestID = d.Uvarint()
	return d.Err()
}

// SDistribute carries a sequenced multicast from the coordinator to every
// server with members (or a replica) of the group.
type SDistribute struct {
	Group string
	Event Event
	// SenderInclusive tells the origin server whether to deliver back to
	// Event.Sender.
	SenderInclusive bool
	// Origin is the server that forwarded the message, so it can complete
	// the client's pending ack identified by RequestID.
	Origin    uint64
	RequestID uint64
}

// Kind implements Message.
func (*SDistribute) Kind() Kind { return KindSDistribute }

// Encode implements Message.
func (m *SDistribute) Encode(e *Encoder) {
	e.PutString(m.Group)
	m.Event.Encode(e)
	e.PutBool(m.SenderInclusive)
	e.PutUvarint(m.Origin)
	e.PutUvarint(m.RequestID)
}

// Decode implements Message.
func (m *SDistribute) Decode(d *Decoder) error {
	m.Group = d.String()
	m.Event = DecodeEvent(d)
	m.SenderInclusive = d.Bool()
	m.Origin = d.Uvarint()
	m.RequestID = d.Uvarint()
	return d.Err()
}

// SInterest tells the coordinator whether a server holds a replica of a
// group, so broadcasts are routed only to interested servers (paper §4: "Only
// the servers who have members in that particular group will receive the
// broadcast message"). A server sends it when what it holds changes.
type SInterest struct {
	ServerID   uint64
	Group      string
	Interested bool
	// Backup marks interest held purely as an elected hot-standby replica.
	Backup bool
}

// Kind implements Message.
func (*SInterest) Kind() Kind { return KindSInterest }

// Encode implements Message.
func (m *SInterest) Encode(e *Encoder) {
	e.PutUvarint(m.ServerID)
	e.PutString(m.Group)
	e.PutBool(m.Interested)
	e.PutBool(m.Backup)
}

// Decode implements Message.
func (m *SInterest) Decode(d *Decoder) error {
	m.ServerID = d.Uvarint()
	m.Group = d.String()
	m.Interested = d.Bool()
	m.Backup = d.Bool()
	return d.Err()
}

// SMemberUpdate is a membership change on its way through the group's one
// order. A server sends the request — a join, leave or crash it validated —
// to the coordinator, which orders it among the group's multicasts and sends
// the ordered copy to every interested server, the origin included. The copy
// carries the group's member list after the change. A change the coordinator
// refuses (Code nonzero) goes back to the origin alone.
type SMemberUpdate struct {
	// ServerID is the origin: the server hosting Member, or zero for a
	// crash the coordinator detected when that server was lost.
	ServerID uint64
	Group    string
	Change   MembershipChange
	Member   MemberInfo
	// Members is the member list after the change (ordered copy only).
	Members []MemberInfo
	// Code is the refusal's reason (refusal only).
	Code ErrCode
}

// Kind implements Message.
func (*SMemberUpdate) Kind() Kind { return KindSMemberUpdate }

// Encode implements Message.
func (m *SMemberUpdate) Encode(e *Encoder) {
	e.PutUvarint(m.ServerID)
	e.PutString(m.Group)
	e.PutByte(byte(m.Change))
	m.Member.encode(e)
	encodeMembers(e, m.Members)
	e.PutUvarint(uint64(m.Code))
}

// Decode implements Message.
func (m *SMemberUpdate) Decode(d *Decoder) error {
	m.ServerID = d.Uvarint()
	m.Group = d.String()
	m.Change = MembershipChange(d.Byte())
	m.Member = decodeMemberInfo(d)
	m.Members = decodeMembers(d)
	m.Code = ErrCode(d.Uvarint())
	return d.Err()
}

// SHeartbeat is exchanged between the coordinator and each server to detect
// failures (paper §4.2).
type SHeartbeat struct {
	ServerID uint64
	Epoch    uint64
	// Time is the sender's clock, Unix nanoseconds, for diagnostics.
	Time int64
	// Load is the sender's load report (server→coordinator heartbeats
	// only; zero on coordinator heartbeats and echoes). The placement
	// manager differentiates consecutive reports into per-server rates.
	Load LoadReport
}

// Kind implements Message.
func (*SHeartbeat) Kind() Kind { return KindSHeartbeat }

// Encode implements Message.
func (m *SHeartbeat) Encode(e *Encoder) {
	e.PutUvarint(m.ServerID)
	e.PutUvarint(m.Epoch)
	e.PutVarint(m.Time)
	m.Load.encode(e)
}

// Decode implements Message.
func (m *SHeartbeat) Decode(d *Decoder) error {
	m.ServerID = d.Uvarint()
	m.Epoch = d.Uvarint()
	m.Time = d.Varint()
	m.Load = decodeLoadReport(d)
	return d.Err()
}

// SServerList distributes the coordinator's view of the server set, sorted
// by boot order. Servers keep it to establish connections and to run
// coordinator succession.
type SServerList struct {
	CoordinatorID uint64
	Epoch         uint64
	Servers       []ServerInfo
}

// Kind implements Message.
func (*SServerList) Kind() Kind { return KindSServerList }

// Encode implements Message.
func (m *SServerList) Encode(e *Encoder) {
	e.PutUvarint(m.CoordinatorID)
	e.PutUvarint(m.Epoch)
	encodeServers(e, m.Servers)
}

// Decode implements Message.
func (m *SServerList) Decode(d *Decoder) error {
	m.CoordinatorID = d.Uvarint()
	m.Epoch = d.Uvarint()
	m.Servers = decodeServers(d)
	return d.Err()
}

// SElect announces a candidate's claim to the coordinator role after the
// previous coordinator is suspected down. The claim succeeds when a
// majority of the remaining servers ack (paper §4.2).
type SElect struct {
	// Proto is the candidate's protocol version; a voter refuses a
	// candidate speaking another one instead of voting.
	Proto       uint32
	CandidateID uint64
	// Epoch is the new epoch the candidate will rule if elected; it must
	// exceed every epoch the receiver has seen.
	Epoch uint64
	Addr  string
}

// Kind implements Message.
func (*SElect) Kind() Kind { return KindSElect }

// Encode implements Message.
func (m *SElect) Encode(e *Encoder) {
	e.PutUint32(m.Proto)
	e.PutUvarint(m.CandidateID)
	e.PutUvarint(m.Epoch)
	e.PutString(m.Addr)
}

// Decode implements Message.
func (m *SElect) Decode(d *Decoder) error {
	m.Proto = d.Uint32()
	m.CandidateID = d.Uvarint()
	m.Epoch = d.Uvarint()
	m.Addr = d.String()
	return d.Err()
}

// SElectReply acks or nacks an SElect. A server nacks when it can still
// reach the incumbent coordinator (the candidate "wrongfully assumed that
// the coordinator is down") or has seen a higher epoch. Nacks carry the
// voter's view of the ruling coordinator so a failed candidate — or a
// server that slept through an election — can find the new regime.
type SElectReply struct {
	VoterID     uint64
	CandidateID uint64
	// Epoch is the voter's highest known epoch on a nack, echoing the
	// candidate's epoch on an ack.
	Epoch uint64
	Ack   bool
	// CoordAddr is the voter's known coordinator peer address (nacks).
	CoordAddr string
}

// Kind implements Message.
func (*SElectReply) Kind() Kind { return KindSElectReply }

// Encode implements Message.
func (m *SElectReply) Encode(e *Encoder) {
	e.PutUvarint(m.VoterID)
	e.PutUvarint(m.CandidateID)
	e.PutUvarint(m.Epoch)
	e.PutBool(m.Ack)
	e.PutString(m.CoordAddr)
}

// Decode implements Message.
func (m *SElectReply) Decode(d *Decoder) error {
	m.VoterID = d.Uvarint()
	m.CandidateID = d.Uvarint()
	m.Epoch = d.Uvarint()
	m.Ack = d.Bool()
	m.CoordAddr = d.String()
	return d.Err()
}

// SStateRequest asks the coordinator where a group's state lives, and is
// answered by an SStateResponse. The state itself is pulled from the named
// server's peer listener with a client's Hello and Join.
type SStateRequest struct {
	RequestID uint64
	Group     string
}

// Kind implements Message.
func (*SStateRequest) Kind() Kind { return KindSStateRequest }

// Encode implements Message.
func (m *SStateRequest) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutString(m.Group)
}

// Decode implements Message.
func (m *SStateRequest) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.Group = d.String()
	return d.Err()
}

// SStateResponse is the coordinator's answer to SStateRequest: where a
// group's state lives, never the state. The requester pulls it from the
// named server.
type SStateResponse struct {
	RequestID uint64
	Group     string
	// OK is false when the group is unknown (Code is CodeNoSuchGroup) or
	// no live server holds it right now (any other Code: ask again).
	OK         bool
	Code       ErrCode
	Persistent bool
	// NextSeq is the sequencer's high-water mark for the group when the
	// answer was made. Events up to it may still be in flight to the
	// source; a requester that ends a pull below it pulls again.
	NextSeq uint64
	// SourceID and SourceAddr name a server holding a replica and its peer
	// listener. SourceID 0 with OK means the group provably has no state
	// yet: the requester starts it empty at sequence 1.
	SourceID   uint64
	SourceAddr string
}

// Kind implements Message.
func (*SStateResponse) Kind() Kind { return KindSStateResponse }

// Encode implements Message.
func (m *SStateResponse) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutString(m.Group)
	e.PutBool(m.OK)
	e.PutUvarint(uint64(m.Code))
	e.PutBool(m.Persistent)
	e.PutUvarint(m.NextSeq)
	e.PutUvarint(m.SourceID)
	e.PutString(m.SourceAddr)
}

// Decode implements Message.
func (m *SStateResponse) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.Group = d.String()
	m.OK = d.Bool()
	m.Code = ErrCode(d.Uvarint())
	m.Persistent = d.Bool()
	m.NextSeq = d.Uvarint()
	m.SourceID = d.Uvarint()
	m.SourceAddr = d.String()
	return d.Err()
}

// SGroupOp propagates a group create/delete through the coordinator to all
// servers, keeping every server's group registry consistent.
type SGroupOp struct {
	RequestID  uint64
	Origin     uint64
	Op         GroupOpKind
	Group      string
	Persistent bool
	Initial    []Object
}

// Kind implements Message.
func (*SGroupOp) Kind() Kind { return KindSGroupOp }

// Encode implements Message.
func (m *SGroupOp) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutUvarint(m.Origin)
	e.PutByte(byte(m.Op))
	e.PutString(m.Group)
	e.PutBool(m.Persistent)
	EncodeObjects(e, m.Initial)
}

// Decode implements Message.
func (m *SGroupOp) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.Origin = d.Uvarint()
	m.Op = GroupOpKind(d.Byte())
	m.Group = d.String()
	m.Persistent = d.Bool()
	m.Initial = DecodeObjects(d)
	return d.Err()
}

// SGroupOpAck confirms (or rejects) an SGroupOp back to the origin server.
type SGroupOpAck struct {
	RequestID uint64
	OK        bool
	Code      ErrCode
	Text      string
}

// Kind implements Message.
func (*SGroupOpAck) Kind() Kind { return KindSGroupOpAck }

// Encode implements Message.
func (m *SGroupOpAck) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutBool(m.OK)
	e.PutUvarint(uint64(m.Code))
	e.PutString(m.Text)
}

// Decode implements Message.
func (m *SGroupOpAck) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	m.OK = d.Bool()
	m.Code = ErrCode(d.Uvarint())
	m.Text = d.String()
	return d.Err()
}

// GroupSeq is one group in an SSeqReport.
type GroupSeq struct {
	Group string
	// NextSeq is the next sequence number the group expects (highest
	// applied + 1).
	NextSeq uint64
	// Digest is the replica's history digest at NextSeq-1, used to
	// detect post-partition divergence.
	Digest uint64
	// Persistent mirrors the group's persistence flag so a recovering
	// coordinator can rebuild its registry.
	Persistent bool
	// Backup marks a replica the server holds as a designated backup.
	Backup bool
	// Members lists the group's members connected to the server and not
	// leaving; the coordinator takes the list as the host's word.
	Members []MemberInfo
}

func (g GroupSeq) encode(e *Encoder) {
	e.PutString(g.Group)
	e.PutUvarint(g.NextSeq)
	e.PutUint64(g.Digest)
	e.PutBool(g.Persistent)
	e.PutBool(g.Backup)
	encodeMembers(e, g.Members)
}

func decodeGroupSeq(d *Decoder) GroupSeq {
	return GroupSeq{
		Group:      d.String(),
		NextSeq:    d.Uvarint(),
		Digest:     d.Uint64(),
		Persistent: d.Bool(),
		Backup:     d.Bool(),
		Members:    decodeMembers(d),
	}
}

// Resolution selects how a post-partition divergence is settled (paper
// §4.2: "The application is given the choice of either rolling back to the
// consistent state, selecting one of the available updated states or
// evolving as two different groups").
type Resolution uint8

// Divergence resolutions.
const (
	// ResolutionRollback discards the divergent replica's history; the
	// server re-fetches the authoritative state.
	ResolutionRollback Resolution = iota + 1
	// ResolutionAdopt makes the divergent replica's version
	// authoritative; the other replicas roll back to it.
	ResolutionAdopt
	// ResolutionFork preserves the divergent version as a new group
	// (ForkName) and rolls the original back to the authoritative state.
	ResolutionFork
)

func (r Resolution) String() string {
	switch r {
	case ResolutionRollback:
		return "rollback"
	case ResolutionAdopt:
		return "adopt"
	case ResolutionFork:
		return "fork"
	default:
		return fmt.Sprintf("Resolution(%d)", uint8(r))
	}
}

// SDivergence instructs a server how to settle a diverged group replica.
type SDivergence struct {
	Group      string
	Resolution Resolution
	// ForkName is the new group name under ResolutionFork.
	ForkName string
}

// Kind implements Message.
func (*SDivergence) Kind() Kind { return KindSDivergence }

// Encode implements Message.
func (m *SDivergence) Encode(e *Encoder) {
	e.PutString(m.Group)
	e.PutByte(byte(m.Resolution))
	e.PutString(m.ForkName)
}

// Decode implements Message.
func (m *SDivergence) Decode(d *Decoder) error {
	m.Group = d.String()
	m.Resolution = Resolution(d.Byte())
	m.ForkName = d.String()
	return d.Err()
}

// SSeqReport is a server's (re-)registration, the link's first frame: per
// group it holds, the high-water mark, digest, backup flag and hosted members.
// A newly elected coordinator rebuilds its sequencer and registry from these
// reports, and the post-partition divergence check runs (paper §4.2).
type SSeqReport struct {
	ServerID uint64
	Groups   []GroupSeq
}

// Kind implements Message.
func (*SSeqReport) Kind() Kind { return KindSSeqReport }

// Encode implements Message.
func (m *SSeqReport) Encode(e *Encoder) {
	e.PutUvarint(m.ServerID)
	e.PutUvarint(uint64(len(m.Groups)))
	for i := range m.Groups {
		m.Groups[i].encode(e)
	}
}

// Decode implements Message.
func (m *SSeqReport) Decode(d *Decoder) error {
	m.ServerID = d.Uvarint()
	n := d.Uvarint()
	if d.Err() != nil {
		return d.Err()
	}
	if n > uint64(d.Remaining()) {
		return ErrShortBuffer
	}
	if n > 0 {
		m.Groups = make([]GroupSeq, 0, n)
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			m.Groups = append(m.Groups, decodeGroupSeq(d))
		}
	}
	return d.Err()
}

// SGroupsQuery asks the coordinator for the names of every group in the
// replicated service, so any member server can answer a client's
// ListGroups with the global view.
type SGroupsQuery struct {
	RequestID uint64
}

// Kind implements Message.
func (*SGroupsQuery) Kind() Kind { return KindSGroupsQuery }

// Encode implements Message.
func (m *SGroupsQuery) Encode(e *Encoder) { e.PutUvarint(m.RequestID) }

// Decode implements Message.
func (m *SGroupsQuery) Decode(d *Decoder) error {
	m.RequestID = d.Uvarint()
	return d.Err()
}

// SGroupsReport answers SGroupsQuery with the sorted group names.
type SGroupsReport struct {
	RequestID uint64
	Groups    []string
}

// Kind implements Message.
func (*SGroupsReport) Kind() Kind { return KindSGroupsReport }

// Encode implements Message.
func (m *SGroupsReport) Encode(e *Encoder) {
	e.PutUvarint(m.RequestID)
	e.PutUvarint(uint64(len(m.Groups)))
	for _, g := range m.Groups {
		e.PutString(g)
	}
}

// Decode implements Message.
func (m *SGroupsReport) Decode(d *Decoder) error {
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
