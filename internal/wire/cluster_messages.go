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

// Fields implements Message.
func (m *SHello) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.Uint32(&m.Proto)
	c.Uvarint(&m.ServerID)
	c.String(&m.Addr)
	c.Uvarint(&m.Epoch)
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

// Fields implements Message.
func (m *SHelloAck) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.Uvarint(&m.CoordinatorID)
	c.Uvarint(&m.Epoch)
	c.Uvarint(&m.BootOrder)
	List(c, &m.Servers, (*ServerInfo).Fields)
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

// Fields implements Message.
func (m *SForward) Fields(c *Codec) {
	c.Uvarint(&m.Origin)
	c.String(&m.Group)
	m.Event.Fields(c)
	c.Bool(&m.SenderInclusive)
	c.Uvarint(&m.RequestID)
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

// Fields implements Message.
func (m *SDistribute) Fields(c *Codec) {
	c.String(&m.Group)
	m.Event.Fields(c)
	c.Bool(&m.SenderInclusive)
	c.Uvarint(&m.Origin)
	c.Uvarint(&m.RequestID)
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

// Fields implements Message.
func (m *SInterest) Fields(c *Codec) {
	c.Uvarint(&m.ServerID)
	c.String(&m.Group)
	c.Bool(&m.Interested)
	c.Bool(&m.Backup)
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

// Fields implements Message.
func (m *SMemberUpdate) Fields(c *Codec) {
	c.Uvarint(&m.ServerID)
	c.String(&m.Group)
	Byte(c, &m.Change)
	m.Member.Fields(c)
	List(c, &m.Members, (*MemberInfo).Fields)
	Narrow(c, &m.Code)
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

// Fields implements Message.
func (m *SHeartbeat) Fields(c *Codec) {
	c.Uvarint(&m.ServerID)
	c.Uvarint(&m.Epoch)
	c.Varint(&m.Time)
	m.Load.Fields(c)
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

// Fields implements Message.
func (m *SServerList) Fields(c *Codec) {
	c.Uvarint(&m.CoordinatorID)
	c.Uvarint(&m.Epoch)
	List(c, &m.Servers, (*ServerInfo).Fields)
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

// Fields implements Message.
func (m *SElect) Fields(c *Codec) {
	c.Uint32(&m.Proto)
	c.Uvarint(&m.CandidateID)
	c.Uvarint(&m.Epoch)
	c.String(&m.Addr)
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

// Fields implements Message.
func (m *SElectReply) Fields(c *Codec) {
	c.Uvarint(&m.VoterID)
	c.Uvarint(&m.CandidateID)
	c.Uvarint(&m.Epoch)
	c.Bool(&m.Ack)
	c.String(&m.CoordAddr)
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

// Fields implements Message.
func (m *SStateRequest) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.String(&m.Group)
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

// Fields implements Message.
func (m *SStateResponse) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.String(&m.Group)
	c.Bool(&m.OK)
	Narrow(c, &m.Code)
	c.Bool(&m.Persistent)
	c.Uvarint(&m.NextSeq)
	c.Uvarint(&m.SourceID)
	c.String(&m.SourceAddr)
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

// Fields implements Message.
func (m *SGroupOp) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.Uvarint(&m.Origin)
	Byte(c, &m.Op)
	c.String(&m.Group)
	c.Bool(&m.Persistent)
	List(c, &m.Initial, (*Object).Fields)
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

// Fields implements Message.
func (m *SGroupOpAck) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	c.Bool(&m.OK)
	Narrow(c, &m.Code)
	c.String(&m.Text)
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

// Fields codes the group's fields.
func (g *GroupSeq) Fields(c *Codec) {
	c.String(&g.Group)
	c.Uvarint(&g.NextSeq)
	c.Uint64(&g.Digest)
	c.Bool(&g.Persistent)
	c.Bool(&g.Backup)
	List(c, &g.Members, (*MemberInfo).Fields)
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

// Fields implements Message.
func (m *SDivergence) Fields(c *Codec) {
	c.String(&m.Group)
	Byte(c, &m.Resolution)
	c.String(&m.ForkName)
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

// Fields implements Message.
func (m *SSeqReport) Fields(c *Codec) {
	c.Uvarint(&m.ServerID)
	List(c, &m.Groups, (*GroupSeq).Fields)
}

// SGroupsQuery asks the coordinator for the names of every group in the
// replicated service, so any member server can answer a client's
// ListGroups with the global view.
type SGroupsQuery struct {
	RequestID uint64
}

// Kind implements Message.
func (*SGroupsQuery) Kind() Kind { return KindSGroupsQuery }

// Fields implements Message.
func (m *SGroupsQuery) Fields(c *Codec) { c.Uvarint(&m.RequestID) }

// SGroupsReport answers SGroupsQuery with the sorted group names.
type SGroupsReport struct {
	RequestID uint64
	Groups    []string
}

// Kind implements Message.
func (*SGroupsReport) Kind() Kind { return KindSGroupsReport }

// Fields implements Message.
func (m *SGroupsReport) Fields(c *Codec) {
	c.Uvarint(&m.RequestID)
	List(c, &m.Groups, codeString)
}
