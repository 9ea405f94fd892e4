package wire

import (
	"errors"
	"fmt"
	"sync"
)

// Kind identifies a message type on the wire. Kinds below 64 are
// client↔server; kinds 64 and above are server↔server (replicated service).
type Kind uint8

// Client↔server message kinds.
const (
	KindHello Kind = iota + 1
	KindHelloAck
	KindCreateGroup
	KindCreateGroupAck
	KindDeleteGroup
	KindDeleteGroupAck
	KindJoin
	KindJoinAck
	KindLeave
	KindLeaveAck
	KindGetMembership
	KindMembershipInfo
	KindMembershipNotify
	KindBcast
	KindBcastAck
	KindDeliver
	KindLockAcquire
	KindLockRelease
	KindLockReply
	KindReduceLog
	KindReduceLogAck
	KindListGroups
	KindGroupList
	KindPing
	KindPong
	KindError
	KindTransferChunk
	KindTransferDone
	KindDeliverBatch
)

// Server↔server message kinds.
const (
	KindSHello Kind = iota + 64
	KindSHelloAck
	KindSForward
	KindSDistribute
	KindSInterest
	KindSMemberUpdate
	KindSHeartbeat
	KindSServerList
	KindSElect
	KindSElectReply
	KindSStateRequest
	KindSStateResponse
	KindSGroupOp
	KindSGroupOpAck
	KindSSeqReport
	KindSDivergence
	KindSGroupsQuery
	KindSGroupsReport
)

// kinds is the message registry, indexed by Kind: each kind's name and a
// constructor of its zero message. A kind without a constructor is not on
// the wire.
var kinds = [...]struct {
	name string
	new  func() Message
}{
	KindHello:            {"Hello", newMessage[Hello]},
	KindHelloAck:         {"HelloAck", newMessage[HelloAck]},
	KindCreateGroup:      {"CreateGroup", newMessage[CreateGroup]},
	KindCreateGroupAck:   {"CreateGroupAck", newMessage[CreateGroupAck]},
	KindDeleteGroup:      {"DeleteGroup", newMessage[DeleteGroup]},
	KindDeleteGroupAck:   {"DeleteGroupAck", newMessage[DeleteGroupAck]},
	KindJoin:             {"Join", newMessage[Join]},
	KindJoinAck:          {"JoinAck", newMessage[JoinAck]},
	KindLeave:            {"Leave", newMessage[Leave]},
	KindLeaveAck:         {"LeaveAck", newMessage[LeaveAck]},
	KindGetMembership:    {"GetMembership", newMessage[GetMembership]},
	KindMembershipInfo:   {"MembershipInfo", newMessage[MembershipInfo]},
	KindMembershipNotify: {"MembershipNotify", newMessage[MembershipNotify]},
	KindBcast:            {"Bcast", newMessage[Bcast]},
	KindBcastAck:         {"BcastAck", newMessage[BcastAck]},
	KindDeliver:          {"Deliver", newMessage[Deliver]},
	KindLockAcquire:      {"LockAcquire", newMessage[LockAcquire]},
	KindLockRelease:      {"LockRelease", newMessage[LockRelease]},
	KindLockReply:        {"LockReply", newMessage[LockReply]},
	KindReduceLog:        {"ReduceLog", newMessage[ReduceLog]},
	KindReduceLogAck:     {"ReduceLogAck", newMessage[ReduceLogAck]},
	KindListGroups:       {"ListGroups", newMessage[ListGroups]},
	KindGroupList:        {"GroupList", newMessage[GroupList]},
	KindPing:             {"Ping", newMessage[Ping]},
	KindPong:             {"Pong", newMessage[Pong]},
	KindError:            {"Error", newMessage[ErrorMsg]},
	KindTransferChunk:    {"TransferChunk", newMessage[TransferChunk]},
	KindTransferDone:     {"TransferDone", newMessage[TransferDone]},
	KindDeliverBatch:     {"DeliverBatch", newMessage[DeliverBatch]},
	KindSHello:           {"SHello", newMessage[SHello]},
	KindSHelloAck:        {"SHelloAck", newMessage[SHelloAck]},
	KindSForward:         {"SForward", newMessage[SForward]},
	KindSDistribute:      {"SDistribute", newMessage[SDistribute]},
	KindSInterest:        {"SInterest", newMessage[SInterest]},
	KindSMemberUpdate:    {"SMemberUpdate", newMessage[SMemberUpdate]},
	KindSHeartbeat:       {"SHeartbeat", newMessage[SHeartbeat]},
	KindSServerList:      {"SServerList", newMessage[SServerList]},
	KindSElect:           {"SElect", newMessage[SElect]},
	KindSElectReply:      {"SElectReply", newMessage[SElectReply]},
	KindSStateRequest:    {"SStateRequest", newMessage[SStateRequest]},
	KindSStateResponse:   {"SStateResponse", newMessage[SStateResponse]},
	KindSGroupOp:         {"SGroupOp", newMessage[SGroupOp]},
	KindSGroupOpAck:      {"SGroupOpAck", newMessage[SGroupOpAck]},
	KindSSeqReport:       {"SSeqReport", newMessage[SSeqReport]},
	KindSDivergence:      {"SDivergence", newMessage[SDivergence]},
	KindSGroupsQuery:     {"SGroupsQuery", newMessage[SGroupsQuery]},
	KindSGroupsReport:    {"SGroupsReport", newMessage[SGroupsReport]},
}

// newMessage returns a new zero T as a Message.
func newMessage[T any, P interface {
	*T
	Message
}]() Message {
	return P(new(T))
}

func (k Kind) String() string {
	if int(k) < len(kinds) && kinds[k].new != nil {
		return kinds[k].name
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Message is any protocol message. Fields codes the body — every field
// after the leading Kind byte — in the Codec's direction.
type Message interface {
	Kind() Kind
	Fields(c *Codec)
}

// ErrUnknownKind is returned by Unmarshal for an unregistered kind byte.
var ErrUnknownKind = errors.New("wire: unknown message kind")

// codecs recycles the Codecs Marshal and Unmarshal run a message's Fields
// with. Passing one through the Message interface moves it to the heap, and
// the pool costs less than an allocation per message.
var codecs = sync.Pool{New: func() any { return new(Codec) }}

// Marshal encodes msg as a kind byte followed by the message body, appending
// to buf (which may be nil) and returning the result.
func Marshal(buf []byte, msg Message) []byte {
	c := codecs.Get().(*Codec)
	c.buf = append(buf, byte(msg.Kind()))
	msg.Fields(c)
	buf = c.buf
	*c = Codec{}
	codecs.Put(c)
	return buf
}

// Unmarshal decodes one message from data, which it must use up. Byte-slice
// fields but a TransferChunk's Data are copied, so the result does not alias
// data.
func Unmarshal(data []byte) (Message, error) {
	if len(data) == 0 {
		return nil, ErrShortBuffer
	}
	k := Kind(data[0])
	if int(k) >= len(kinds) || kinds[k].new == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, uint8(k))
	}
	msg := kinds[k].new()
	c := codecs.Get().(*Codec)
	c.buf, c.read = data[1:], true
	msg.Fields(c)
	err := c.err
	if err == nil && c.Remaining() != 0 {
		err = fmt.Errorf("%d trailing bytes", c.Remaining())
	}
	*c = Codec{}
	codecs.Put(c)
	if err != nil {
		return nil, fmt.Errorf("wire: decode %s: %w", k, err)
	}
	return msg, nil
}
