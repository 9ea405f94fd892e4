package wire

import (
	"errors"
	"fmt"
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

var kindNames = map[Kind]string{
	KindHello:            "Hello",
	KindHelloAck:         "HelloAck",
	KindCreateGroup:      "CreateGroup",
	KindCreateGroupAck:   "CreateGroupAck",
	KindDeleteGroup:      "DeleteGroup",
	KindDeleteGroupAck:   "DeleteGroupAck",
	KindJoin:             "Join",
	KindJoinAck:          "JoinAck",
	KindLeave:            "Leave",
	KindLeaveAck:         "LeaveAck",
	KindGetMembership:    "GetMembership",
	KindMembershipInfo:   "MembershipInfo",
	KindMembershipNotify: "MembershipNotify",
	KindBcast:            "Bcast",
	KindBcastAck:         "BcastAck",
	KindDeliver:          "Deliver",
	KindLockAcquire:      "LockAcquire",
	KindLockRelease:      "LockRelease",
	KindLockReply:        "LockReply",
	KindReduceLog:        "ReduceLog",
	KindReduceLogAck:     "ReduceLogAck",
	KindListGroups:       "ListGroups",
	KindGroupList:        "GroupList",
	KindPing:             "Ping",
	KindPong:             "Pong",
	KindError:            "Error",
	KindTransferChunk:    "TransferChunk",
	KindTransferDone:     "TransferDone",
	KindDeliverBatch:     "DeliverBatch",
	KindSHello:           "SHello",
	KindSHelloAck:        "SHelloAck",
	KindSForward:         "SForward",
	KindSDistribute:      "SDistribute",
	KindSInterest:        "SInterest",
	KindSMemberUpdate:    "SMemberUpdate",
	KindSHeartbeat:       "SHeartbeat",
	KindSServerList:      "SServerList",
	KindSElect:           "SElect",
	KindSElectReply:      "SElectReply",
	KindSStateRequest:    "SStateRequest",
	KindSStateResponse:   "SStateResponse",
	KindSGroupOp:         "SGroupOp",
	KindSGroupOpAck:      "SGroupOpAck",
	KindSSeqReport:       "SSeqReport",
	KindSDivergence:      "SDivergence",
	KindSGroupsQuery:     "SGroupsQuery",
	KindSGroupsReport:    "SGroupsReport",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Message is any protocol message. Encode appends the body (without the
// leading Kind byte); decode fills the receiver from a body.
type Message interface {
	Kind() Kind
	Encode(e *Encoder)
	Decode(d *Decoder) error
}

// ErrUnknownKind is returned by Unmarshal for an unregistered kind byte.
var ErrUnknownKind = errors.New("wire: unknown message kind")

// factories maps each kind to a constructor of its zero message.
var factories = map[Kind]func() Message{
	KindHello:            func() Message { return new(Hello) },
	KindHelloAck:         func() Message { return new(HelloAck) },
	KindCreateGroup:      func() Message { return new(CreateGroup) },
	KindCreateGroupAck:   func() Message { return new(CreateGroupAck) },
	KindDeleteGroup:      func() Message { return new(DeleteGroup) },
	KindDeleteGroupAck:   func() Message { return new(DeleteGroupAck) },
	KindJoin:             func() Message { return new(Join) },
	KindJoinAck:          func() Message { return new(JoinAck) },
	KindLeave:            func() Message { return new(Leave) },
	KindLeaveAck:         func() Message { return new(LeaveAck) },
	KindGetMembership:    func() Message { return new(GetMembership) },
	KindMembershipInfo:   func() Message { return new(MembershipInfo) },
	KindMembershipNotify: func() Message { return new(MembershipNotify) },
	KindBcast:            func() Message { return new(Bcast) },
	KindBcastAck:         func() Message { return new(BcastAck) },
	KindDeliver:          func() Message { return new(Deliver) },
	KindLockAcquire:      func() Message { return new(LockAcquire) },
	KindLockRelease:      func() Message { return new(LockRelease) },
	KindLockReply:        func() Message { return new(LockReply) },
	KindReduceLog:        func() Message { return new(ReduceLog) },
	KindReduceLogAck:     func() Message { return new(ReduceLogAck) },
	KindListGroups:       func() Message { return new(ListGroups) },
	KindGroupList:        func() Message { return new(GroupList) },
	KindPing:             func() Message { return new(Ping) },
	KindPong:             func() Message { return new(Pong) },
	KindError:            func() Message { return new(ErrorMsg) },
	KindTransferChunk:    func() Message { return new(TransferChunk) },
	KindTransferDone:     func() Message { return new(TransferDone) },
	KindDeliverBatch:     func() Message { return new(DeliverBatch) },
	KindSHello:           func() Message { return new(SHello) },
	KindSHelloAck:        func() Message { return new(SHelloAck) },
	KindSForward:         func() Message { return new(SForward) },
	KindSDistribute:      func() Message { return new(SDistribute) },
	KindSInterest:        func() Message { return new(SInterest) },
	KindSMemberUpdate:    func() Message { return new(SMemberUpdate) },
	KindSHeartbeat:       func() Message { return new(SHeartbeat) },
	KindSServerList:      func() Message { return new(SServerList) },
	KindSElect:           func() Message { return new(SElect) },
	KindSElectReply:      func() Message { return new(SElectReply) },
	KindSStateRequest:    func() Message { return new(SStateRequest) },
	KindSStateResponse:   func() Message { return new(SStateResponse) },
	KindSGroupOp:         func() Message { return new(SGroupOp) },
	KindSGroupOpAck:      func() Message { return new(SGroupOpAck) },
	KindSSeqReport:       func() Message { return new(SSeqReport) },
	KindSDivergence:      func() Message { return new(SDivergence) },
	KindSGroupsQuery:     func() Message { return new(SGroupsQuery) },
	KindSGroupsReport:    func() Message { return new(SGroupsReport) },
}

// Marshal encodes msg as a kind byte followed by the message body, appending
// to buf (which may be nil) and returning the result.
func Marshal(buf []byte, msg Message) []byte {
	e := NewEncoder(buf)
	e.PutByte(byte(msg.Kind()))
	msg.Encode(e)
	return e.Bytes()
}

// Unmarshal decodes one message from data. Byte-slice fields are copied, so
// the result does not alias data.
func Unmarshal(data []byte) (Message, error) {
	if len(data) == 0 {
		return nil, ErrShortBuffer
	}
	k := Kind(data[0])
	mk, ok := factories[k]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, uint8(k))
	}
	msg := mk()
	d := NewDecoder(data[1:])
	if err := msg.Decode(d); err != nil {
		return nil, fmt.Errorf("wire: decode %s: %w", k, err)
	}
	return msg, nil
}
