package cluster_test

import (
	"testing"
	"time"

	"corona/internal/client"
	"corona/internal/transport"
	"corona/internal/wire"
)

// TestHostileMigrateOfferDoesNotCrashServer: the peer listener takes frames
// from whoever dials it, and an SMigrateOffer's Total is an unvalidated
// uint64. Sizing the reassembly buffer from it used to panic the process
// (makeslice: cap out of range). The offer must be refused — an
// SMigrateResult{OK: false} or a closed connection — and the server must keep
// serving its clients.
func TestHostileMigrateOfferDoesNotCrashServer(t *testing.T) {
	tc := startCluster(t, 1)
	srv := tc.servers[0]

	conn, err := transport.Dial(srv.PeerAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	offer := &wire.SMigrateOffer{RequestID: 1, SourceID: 99, Group: "ghost", NextSeq: 1, Total: 1 << 62}
	if err := conn.WriteMessage(offer); err != nil {
		t.Fatal(err)
	}
	// No chunks: the cutover ends the stream far short of the announced size.
	if err := conn.WriteMessage(&wire.SMigrateCutover{RequestID: 1, NextSeq: 1}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if reply, err := conn.ReadMessage(); err == nil {
		res, ok := reply.(*wire.SMigrateResult)
		if !ok || res.OK {
			t.Fatalf("hostile offer answered with %#v, want SMigrateResult{OK: false}", reply)
		}
	}
	if srv.Engine().HasGroup("ghost") {
		t.Fatal("hostile offer installed a group")
	}

	// Still serving.
	sk := newSink()
	a := dialTo(t, srv, "a", nil)
	b := dialTo(t, srv, "b", sk)
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*client.Client{a, b} {
		if _, err := c.Join("g", client.JoinOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.BcastUpdate("g", "o", []byte("still here"), false); err != nil {
		t.Fatal(err)
	}
	if evs := sk.wait(t, 1); string(evs[0].Data) != "still here" {
		t.Fatalf("delivery after hostile offer = %q", evs[0].Data)
	}
}
