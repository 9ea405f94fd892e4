package wire

import "fmt"

// ProtocolVersion is carried by every frame that opens a connection: a
// client's Hello, the Hello of a replica pull, a server's SHello and a
// candidate's SElect. Whoever takes the connection refuses another version
// with one Error{CodeBadVersion} frame. A change to a frame layout or to the
// history digest's values bumps it; protocolPin, beside it, pins both
// (TestProtocolVersionPin). Version 6: a server relies on the coordinator
// starting its stream of a group at the answer to its locate.
const ProtocolVersion = 6

// protocolPin is TestProtocolVersionPin's hash of every round-trip sample's
// frame and of the digest golden chain, as ProtocolVersion defines them.
const protocolPin = 0x888c85508ad8c543

// EventKind distinguishes the two multicast primitives of the paper:
// bcastState overrides an object's state, bcastUpdate appends an incremental
// change preserving the history of updates.
type EventKind uint8

// Event kinds.
const (
	// EventState carries a complete new state for an object; it replaces
	// the object's present state (paper: bcastState).
	EventState EventKind = iota + 1
	// EventUpdate carries an incremental change; it is appended to the
	// object's existing state (paper: bcastUpdate).
	EventUpdate
)

func (k EventKind) String() string {
	switch k {
	case EventState:
		return "state"
	case EventUpdate:
		return "update"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Valid reports whether k is a defined event kind.
func (k EventKind) Valid() bool { return k == EventState || k == EventUpdate }

// Event is one sequenced multicast within a group: the unit stored in the
// state log, replayed on recovery, and delivered to members. Seq is assigned
// by the sequencer (the server, or the coordinator in a replicated service)
// and increases monotonically within a group, imposing a total order.
type Event struct {
	// Seq is the group-scoped total-order sequence number.
	Seq uint64
	// Kind says whether Data replaces (state) or extends (update) the object.
	Kind EventKind
	// ObjectID identifies the shared object within the group's state set.
	ObjectID string
	// Data is the opaque, client-interpreted byte-stream payload.
	Data []byte
	// Sender is the client ID of the originating member (0 for the server,
	// e.g. the initial-state events of a group).
	Sender uint64
	// Time is the server-assigned timestamp, Unix nanoseconds.
	Time int64
}

// Fields codes the event's standard encoding — the one every message,
// transfer payload and stable-storage record that carries an event uses. A
// read copies Data out of the input.
func (ev *Event) Fields(c *Codec) {
	c.Uvarint(&ev.Seq)
	Byte(c, &ev.Kind)
	c.String(&ev.ObjectID)
	c.ByteCopy(&ev.Data)
	c.Uvarint(&ev.Sender)
	c.Varint(&ev.Time)
}

// Object is one element of a group's shared state: an identifier and the
// byte-stream encoding of the object's current state. The server never
// interprets Data (client-based semantics).
type Object struct {
	ID   string
	Data []byte
}

// Fields codes the object. A read copies Data out of the input.
func (o *Object) Fields(c *Codec) {
	c.String(&o.ID)
	c.ByteCopy(&o.Data)
}

// DecodeObjectsAlias reads an object list with Data aliasing the input,
// for callers that own the buffer outright: transfer reassembly, and log
// recovery, whose state.NewInitial and state.RestoreMaterialized make the
// one copy the state keeps. It returns what it reads, so the aliasretain
// analyzer follows its results; Object.Fields lays out the same bytes.
//
// corona:aliases-input — and corona:zerocopy: this is the join transfer
// fast path; defensive copies here double the join's allocation volume.
func DecodeObjectsAlias(c *Codec) []Object {
	n := c.count()
	if n == 0 {
		return nil
	}
	objs := make([]Object, 0, n)
	for ; n > 0 && c.err == nil; n-- {
		objs = append(objs, Object{ID: c.str(), Data: c.BytesAlias()})
	}
	return objs
}

// DecodeEventAlias reads an event with Data aliasing the input, for
// callers that own the buffer outright: transfer reassembly, and log
// recovery, whose state.ApplyRun keeps Data as it is, pointing into the
// segment read nothing writes again. It returns what it reads, so the
// aliasretain analyzer follows its result; Event.Fields lays out the same
// bytes.
//
// corona:aliases-input — and corona:zerocopy: recovery and the join
// transfer decode every event through it; a defensive copy here is a
// second copy of every byte they restore.
func DecodeEventAlias(c *Codec) Event {
	return Event{
		Seq:      c.uvarint(),
		Kind:     EventKind(c.byte()),
		ObjectID: c.str(),
		Data:     c.BytesAlias(),
		Sender:   c.uvarint(),
		Time:     c.varint(),
	}
}

// DecodeEventsAlias reads an event list with Data aliasing the input, for
// callers that own the buffer outright: transfer reassembly, and log
// recovery, whose state.RestoreMaterialized makes the one copy the state
// keeps.
//
// corona:aliases-input — and corona:zerocopy: this is the join transfer
// fast path; defensive copies here double the join's allocation volume.
func DecodeEventsAlias(c *Codec) []Event {
	n := c.count()
	if n == 0 {
		return nil
	}
	evs := make([]Event, 0, n)
	for ; n > 0 && c.err == nil; n-- {
		evs = append(evs, DecodeEventAlias(c))
	}
	return evs
}

// TransferMode selects how the server transfers group state to a joining
// client (paper §3.2, "customized state transfer").
type TransferMode uint8

// Transfer modes.
const (
	// TransferFull sends the complete current shared state of the group.
	TransferFull TransferMode = iota + 1
	// TransferLastN sends only the latest N updates to the state.
	TransferLastN
	// TransferObjects sends only the state of the named objects.
	TransferObjects
	// TransferNone sends no state (the client only wants future messages).
	TransferNone
	// TransferResume sends every event after FromSeq if the server's log
	// still covers it, or falls back to a full snapshot. Used by
	// reconnecting clients to restore consistency (companion-paper [15]
	// behaviour).
	TransferResume
)

func (m TransferMode) String() string {
	switch m {
	case TransferFull:
		return "full"
	case TransferLastN:
		return "last-n"
	case TransferObjects:
		return "objects"
	case TransferNone:
		return "none"
	case TransferResume:
		return "resume"
	default:
		return fmt.Sprintf("TransferMode(%d)", uint8(m))
	}
}

// Valid reports whether m is a defined transfer mode.
func (m TransferMode) Valid() bool { return m >= TransferFull && m <= TransferResume }

// TransferPolicy is a joining client's state-transfer request.
type TransferPolicy struct {
	Mode TransferMode
	// LastN is the update count for TransferLastN.
	LastN uint32
	// Objects names the requested objects for TransferObjects.
	Objects []string
	// FromSeq is the first sequence number the client is missing, for
	// TransferResume.
	FromSeq uint64
}

// FullTransfer is the default policy: transfer the whole group state.
var FullTransfer = TransferPolicy{Mode: TransferFull}

// Fields codes the policy.
func (p *TransferPolicy) Fields(c *Codec) {
	Byte(c, &p.Mode)
	Narrow(c, &p.LastN)
	List(c, &p.Objects, codeString)
	c.Uvarint(&p.FromSeq)
}

// Role is a member's relationship to the group (paper footnote 1: member
// roles specify the relationships among members of a group).
type Role uint8

// Member roles.
const (
	// RolePrincipal members operate on the shared state.
	RolePrincipal Role = iota + 1
	// RoleObserver members receive state and messages but are expected not
	// to modify the shared state; the session manager may enforce this.
	RoleObserver
)

func (r Role) String() string {
	switch r {
	case RolePrincipal:
		return "principal"
	case RoleObserver:
		return "observer"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// Valid reports whether r is a defined role.
func (r Role) Valid() bool { return r == RolePrincipal || r == RoleObserver }

// MemberInfo describes one group member in membership snapshots and
// notifications.
type MemberInfo struct {
	ClientID uint64
	Name     string
	Role     Role
}

// Fields codes the member.
func (m *MemberInfo) Fields(c *Codec) {
	c.Uvarint(&m.ClientID)
	c.String(&m.Name)
	Byte(c, &m.Role)
}

// MembershipChange is the cause of a membership notification.
type MembershipChange uint8

// Membership changes.
const (
	MemberJoined MembershipChange = iota + 1
	MemberLeft
	// MemberCrashed marks an involuntary leave detected by the server
	// (connection loss or heartbeat timeout).
	MemberCrashed
)

func (c MembershipChange) String() string {
	switch c {
	case MemberJoined:
		return "joined"
	case MemberLeft:
		return "left"
	case MemberCrashed:
		return "crashed"
	default:
		return fmt.Sprintf("MembershipChange(%d)", uint8(c))
	}
}

// ServerInfo describes one server of a replicated Corona service. Servers
// are ordered by BootOrder (the order they were brought up), which drives
// coordinator succession.
type ServerInfo struct {
	ID        uint64
	Addr      string
	BootOrder uint64
}

// Fields codes the server.
func (s *ServerInfo) Fields(c *Codec) {
	c.Uvarint(&s.ID)
	c.String(&s.Addr)
	c.Uvarint(&s.BootOrder)
}

// ErrCode classifies protocol-level errors reported in an ErrorMsg.
type ErrCode uint16

// Error codes.
const (
	CodeUnknown ErrCode = iota
	CodeNoSuchGroup
	CodeGroupExists
	CodeNotMember
	CodeAlreadyMember
	CodeDenied
	CodeBadRequest
	CodeLockHeld
	CodeOverloaded
	CodeInternal
	CodeBadVersion
	CodeShuttingDown
	// CodeNotDurable is the honest durability nack: the multicast was
	// delivered (ordering and fanout completed) but the stable-storage
	// commit failed, so the event may not survive a server restart. Sent
	// in place of BcastAck when the sync policy promised durability.
	CodeNotDurable
)

func (c ErrCode) String() string {
	switch c {
	case CodeUnknown:
		return "unknown"
	case CodeNoSuchGroup:
		return "no-such-group"
	case CodeGroupExists:
		return "group-exists"
	case CodeNotMember:
		return "not-member"
	case CodeAlreadyMember:
		return "already-member"
	case CodeDenied:
		return "denied"
	case CodeBadRequest:
		return "bad-request"
	case CodeLockHeld:
		return "lock-held"
	case CodeOverloaded:
		return "overloaded"
	case CodeInternal:
		return "internal"
	case CodeBadVersion:
		return "bad-version"
	case CodeShuttingDown:
		return "shutting-down"
	case CodeNotDurable:
		return "not-durable"
	default:
		return fmt.Sprintf("ErrCode(%d)", uint16(c))
	}
}
