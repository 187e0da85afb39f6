package ipc

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/core"
)

func TestClientSubmitEpochRoundTrip(t *testing.T) {
	_, _, names, sock := startServer(t, 4)
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.SubmitEpoch(names)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || res.Enqueued != len(names) {
		t.Fatalf("SubmitEpoch = %+v, want epoch 1 with %d enqueued", res, len(names))
	}
	res2, err := c.SubmitEpoch(names)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Epoch != 2 {
		t.Fatalf("second SubmitEpoch issued id %d, want 2", res2.Epoch)
	}
	eps := snapshot(t, c).Epochs
	if len(eps) != 2 || eps[0].ID != 1 || eps[0].State != core.EpochActive {
		t.Fatalf("Epochs = %+v, want two active epochs led by id 1", eps)
	}
	if eps[1].Enqueued != len(names) {
		t.Fatalf("epoch 2 enqueued = %d, want %d", eps[1].Enqueued, len(names))
	}
}

func TestClientCancelEpochRoundTrip(t *testing.T) {
	_, _, names, sock := startServer(t, 6)
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.SubmitEpoch(names)
	if err != nil {
		t.Fatal(err)
	}
	removed, err := c.CancelEpoch(res.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(names) {
		t.Fatalf("CancelEpoch removed %d entries, want %d", removed, len(names))
	}
	eps := snapshot(t, c).Epochs
	if len(eps) != 1 || eps[0].State != core.EpochCancelled {
		t.Fatalf("Epochs after cancel = %+v, want one cancelled epoch", eps)
	}
	// Idempotent on the wire, too.
	if removed, err := c.CancelEpoch(res.Epoch); err != nil || removed != 0 {
		t.Fatalf("repeated CancelEpoch = (%d, %v), want (0, nil)", removed, err)
	}
	// A cancelled plan leaves nothing claimable: reads bypass and succeed.
	if _, err := c.Read(names[0]); err != nil {
		t.Fatalf("Read after cancel: %v", err)
	}
	var remote *RemoteError
	if _, err := c.CancelEpoch(999); !errors.As(err, &remote) {
		t.Fatalf("CancelEpoch(unknown) = %v, want RemoteError", err)
	}
}

// TestSocketPlanStartsProducers: a plan submitted over the socket holds the
// stage's parked producers only until its reply is written — or fails to
// be, when the client hangs up without reading it — and then they fill the
// buffer.
func TestSocketPlanStartsProducers(t *testing.T) {
	for _, hangUp := range []bool{false, true} {
		fx := startAheadServer(t, 128, 512)
		conn, err := net.Dial("unix", fx.sock)
		if err != nil {
			t.Fatal(err)
		}
		plan := binary.AppendUvarint(nil, uint64(len(fx.names)))
		for _, n := range fx.names {
			plan = appendString(plan, n)
		}
		if err := writeFrame(conn, OpPlan, 0, plan); err != nil {
			t.Fatal(err)
		}
		if !hangUp {
			if _, _, _, err := frameReader(conn).readFrame(); err != nil {
				t.Fatal(err)
			}
		}
		conn.Close()
		fx.awaitParked(64)
	}
}
