package wire

// This file defines what the placement manager reads off the servers. A
// placement decision moves no state itself: a group's state crosses between
// servers one way, the server that needs it dialing the peer listener of a
// server that holds it and joining the group like a client — Hello, then
// Join — to read the client's transfer: JoinAck, then TransferChunk... and
// TransferDone when the image is streamed. A live migration is a backup
// designation of the target (SInterest), answered by the target's own
// SInterest, and then the directed release of the source.

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

// Fields codes the report.
func (l *LoadReport) Fields(c *Codec) {
	c.Uvarint(&l.Groups)
	c.Uvarint(&l.Sessions)
	c.Uvarint(&l.Bcasts)
}
