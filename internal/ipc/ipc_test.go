package ipc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/control"
	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/dataset"
	"github.com/dsrhaslab/prisma-go/internal/httpadmin"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/storage/storagetest"
	"github.com/dsrhaslab/prisma-go/internal/tenancy"
)

// startServer builds a real-mode PRISMA stage over generated files and
// serves it on a temp socket.
func startServer(t *testing.T, nFiles int) (*Server, *core.Stage, []string, string) {
	t.Helper()
	return startServerWithConfig(t, nFiles, ServeConfig{})
}

// startServerWithConfig is startServer with explicit server resilience
// settings.
func startServerWithConfig(t *testing.T, nFiles int, cfg ServeConfig) (*Server, *core.Stage, []string, string) {
	t.Helper()
	dir := t.TempDir()
	samples := make([]dataset.Sample, nFiles)
	names := make([]string, nFiles)
	for i := range samples {
		samples[i] = dataset.Sample{Name: fmt.Sprintf("f%03d.bin", i), Size: int64(1024 + i)}
		names[i] = samples[i].Name
	}
	man := dataset.MustNew(samples)
	if err := dataset.Generate(dir, man, 42); err != nil {
		t.Fatal(err)
	}
	env := conc.NewReal()
	backend := storagetest.OpenDir(t, dir)
	// A tracer at sampling 0, as Open builds it, so the control table's
	// sampling key has something to turn.
	stage, err := core.NewStage(env, backend, man, core.StageConfig{
		InitialProducers: 2, MaxProducers: 8, InitialBufferCapacity: 8, MaxBufferCapacity: 64,
		Tracer: obs.NewTracer(env, obs.TracerOptions{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	stage.Start()

	sock := filepath.Join(t.TempDir(), "prisma.sock")
	srv, err := ServeWithConfig(sock, stage, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	attachSurface(srv, stage, nil)
	t.Cleanup(func() {
		srv.Close()
		stage.Close()
	})
	return srv, stage, names, sock
}

// attachSurface wires OpGet and OpControl as Prisma.ServeUnix does: the
// bundle document, and a control table over the stage and, when not nil,
// its tenants.
func attachSurface(srv *Server, stage *core.Stage, tenants *tenancy.Manager) {
	cfg := httpadmin.Config{Epochs: stage.Epochs, CancelEpoch: stage.CancelEpoch}
	if tenants != nil {
		cfg.Tenants = tenants.Stats
	}
	srv.SetControlSurface(func(spans int) ([]byte, error) {
		cfg := cfg
		cfg.Tracer = stage.Tracer()
		return json.Marshal(httpadmin.BuildBundle(stage, cfg, spans))
	}, (&control.Table{Stage: stage, Tenants: tenants}).Apply)
}

// snapshot fetches and decodes the server's OpGet document.
func snapshot(t *testing.T, c *Client) httpadmin.Bundle {
	t.Helper()
	blob, err := c.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	var b httpadmin.Bundle
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestClientReadPlannedFile(t *testing.T) {
	_, _, names, sock := startServer(t, 4)
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SubmitPlan(names); err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		d, err := c.Read(n)
		if err != nil {
			t.Fatalf("Read(%s): %v", n, err)
		}
		want := int64(1024 + i)
		if d.Size != want || int64(len(d.Bytes)) != want {
			t.Fatalf("Read(%s): size %d, %d bytes, want %d", n, d.Size, len(d.Bytes), want)
		}
	}
}

func TestClientReadBypass(t *testing.T) {
	_, stage, names, sock := startServer(t, 3)
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// No plan submitted: the read bypasses the buffer but still succeeds.
	d, err := c.Read(names[0])
	if err != nil || d.Size != 1024 {
		t.Fatalf("Read = %+v, %v", d, err)
	}
	if stage.Stats().Bypasses != 1 {
		t.Fatalf("Bypasses = %d, want 1", stage.Stats().Bypasses)
	}
}

func TestClientReadMissingFileIsRemoteError(t *testing.T) {
	_, _, _, sock := startServer(t, 1)
	c, _ := Dial(sock)
	defer c.Close()
	_, err := c.Read("ghost.bin")
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
}

func TestClientStatsAndControl(t *testing.T) {
	_, _, names, sock := startServer(t, 4)
	c, _ := Dial(sock)
	defer c.Close()
	if err := c.SubmitPlan(names[:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(names[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Control("producers=5", "buffer=32"); err != nil {
		t.Fatal(err)
	}
	stats := snapshot(t, c).Stats
	if stats.Reads < 1 {
		t.Fatalf("stats.Reads = %d, want >= 1", stats.Reads)
	}
	if stats.TargetProducers != 5 {
		t.Fatalf("TargetProducers = %d, want 5", stats.TargetProducers)
	}
	if stats.Buffer.Capacity != 32 {
		t.Fatalf("Buffer.Capacity = %d, want 32", stats.Buffer.Capacity)
	}
}

// TestRetiredOpcodes: opcodes 3, 4, 5, 7, 8, 9, 11, 13 and 14 each once
// carried one view or one knob; OpGet and OpControl carry them all now. A
// frame with a retired opcode gets an error reply naming the unknown
// opcode, and the connection stays usable for the next read.
func TestRetiredOpcodes(t *testing.T) {
	_, _, names, sock := startServer(t, len(retiredOpcodes))
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, op := range retiredOpcodes {
		var re *RemoteError
		want := fmt.Sprintf("unknown opcode %d", op)
		if _, err := c.roundTrip(op, binary.AppendUvarint(nil, 4), false); !errors.As(err, &re) || !strings.Contains(re.Msg, want) {
			t.Fatalf("opcode %d answered %v, want a remote %q error", op, err, want)
		}
		d, err := c.Read(names[i])
		if err != nil || d.Size != int64(1024+i) {
			t.Fatalf("read after opcode %d: size %d, %v", op, d.Size, err)
		}
	}
	if c.reconnects != 0 {
		t.Fatalf("retired opcodes cost the connection: %d reconnects", c.reconnects)
	}
}

var retiredOpcodes = []byte{3, 4, 5, 7, 8, 9, 11, 13, 14}

// TestControlPairsOverSocket: OpControl's pairs reach the table whole — a
// request with one bad pair changes nothing — and OpGet's span bound is
// honored, an empty payload asking for the default.
func TestControlPairsOverSocket(t *testing.T) {
	_, stage, _, sock := startServer(t, 1)
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Control("producers=3", "buffer=0"); err == nil {
		t.Fatal("buffer=0 accepted")
	}
	if err := c.Control("producers=3", "sampling=0.5"); err != nil {
		t.Fatal(err)
	}
	if s := stage.Stats(); s.TargetProducers != 3 || s.TraceSampling != 0.5 || s.Buffer.Capacity != 8 {
		t.Fatalf("stage after control = t %d, sampling %v, N %d; want 3, 0.5, 8", s.TargetProducers, s.TraceSampling, s.Buffer.Capacity)
	}
	c.SetTracer(obs.NewTracer(conc.NewReal(), obs.TracerOptions{Sampling: 1}))
	if _, err := c.Read("f000.bin"); err != nil {
		t.Fatal(err)
	}
	if b := snapshot(t, c); len(b.Spans) != 0 {
		t.Fatalf("Get(0) carried %d spans", len(b.Spans))
	}
	for _, spans := range []int{1, -1} {
		blob, err := c.Get(spans)
		if err != nil {
			t.Fatal(err)
		}
		var b httpadmin.Bundle
		if err := json.Unmarshal(blob, &b); err != nil {
			t.Fatal(err)
		}
		if len(b.Spans) == 0 || (spans > 0 && len(b.Spans) > spans) {
			t.Fatalf("Get(%d) carried %d spans", spans, len(b.Spans))
		}
	}
}

func TestManyConcurrentClients(t *testing.T) {
	// One client per simulated worker process, all reading concurrently —
	// the PyTorch integration shape.
	_, _, names, sock := startServer(t, 64)
	planner, _ := Dial(sock)
	defer planner.Close()
	if err := planner.SubmitPlan(names); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, len(names))
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(sock)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := w; i < len(names); i += workers {
				if _, err := c.Read(names[i]); err != nil {
					errs <- fmt.Errorf("worker %d read %s: %w", w, names[i], err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPing(t *testing.T) {
	_, _, _, sock := startServer(t, 1)
	c, _ := Dial(sock)
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestServerCloseSeversClients(t *testing.T) {
	srv, _, _, sock := startServer(t, 1)
	c, _ := Dial(sock)
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err == nil {
		t.Fatal("Ping succeeded after server close")
	}
	// Idempotent close.
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestDialMissingSocket(t *testing.T) {
	if _, err := Dial(filepath.Join(t.TempDir(), "nope.sock")); err == nil {
		t.Fatal("Dial of missing socket succeeded")
	}
}

func TestStringCodecRoundTrip(t *testing.T) {
	for _, s := range []string{"", "a", "train/0001.jpg", string(make([]byte, 1000))} {
		buf := appendString([]byte{0xFF}, s) // leading junk survives
		got, rest, err := readString(buf[1:])
		if err != nil || got != s || len(rest) != 0 {
			t.Fatalf("round trip %q: got %q rest %d err %v", s, got, len(rest), err)
		}
	}
}

func TestStringCodecTruncated(t *testing.T) {
	buf := appendString(nil, "hello")
	if _, _, err := readString(buf[:3]); err == nil {
		t.Fatal("truncated string accepted")
	}
	if _, _, err := readString(nil); err == nil {
		t.Fatal("empty buffer accepted")
	}
}

// TestSettingsCodecRoundTrip: OpControl's pairs decode back into the
// settings that were sent, and a count the payload cannot hold is refused
// before anything is allocated for it.
func TestSettingsCodecRoundTrip(t *testing.T) {
	settings := []string{"producers=4", "tenant.a.weight=2.5", "empty="}
	pairs, err := readStrings(appendSettings(nil, settings), 2)
	if err != nil || len(pairs) != 2*len(settings) {
		t.Fatalf("decoded %q, %v", pairs, err)
	}
	for i, s := range settings {
		if got := pairs[2*i] + "=" + pairs[2*i+1]; got != s {
			t.Fatalf("pair %d = %q, want %q", i, got, s)
		}
	}
	if _, err := readStrings(append(binary.AppendUvarint(nil, 1<<40), 1, 'k', 1, 'v'), 2); err == nil {
		t.Fatal("a count larger than the payload was accepted")
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	prop := func(opcode byte, trace uint64, payload []byte) bool {
		var buf bytes.Buffer
		if err := writeFrame(&buf, opcode, trace, payload); err != nil {
			return false
		}
		gotOp, gotTrace, gotPayload, err := frameReader(&buf).readFrame()
		if err != nil || gotOp != opcode || gotTrace != trace {
			return false
		}
		if len(gotPayload) != len(payload) {
			return false
		}
		for i := range payload {
			if gotPayload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, OpRead, 0, make([]byte, MaxFrame)); err != ErrFrameTooLarge {
		t.Fatalf("writeFrame oversize = %v, want ErrFrameTooLarge", err)
	}
	// A hostile length prefix is rejected before allocation.
	var hdr [13]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, _, err := frameReader(bytes.NewReader(hdr[:])).readFrame(); err != ErrFrameTooLarge {
		t.Fatalf("readFrame oversize = %v, want ErrFrameTooLarge", err)
	}
	// Frames shorter than opcode+trace are malformed.
	if _, _, _, err := frameReader(bytes.NewReader(make([]byte, 4))).readFrame(); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	short := [4]byte{0, 0, 0, 5} // length 5 < 9: opcode but truncated trace
	if _, _, _, err := frameReader(bytes.NewReader(append(short[:], make([]byte, 5)...))).readFrame(); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	_ = writeFrame(&buf, OpRead, 7, []byte("hello"))
	raw := buf.Bytes()
	if _, _, _, err := frameReader(bytes.NewReader(raw[:len(raw)-2])).readFrame(); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestParseResponseStatuses(t *testing.T) {
	if _, err := parseResponse(nil); err == nil {
		t.Error("empty response accepted")
	}
	if out, err := parseResponse(okResponse([]byte("x"))); err != nil || string(out) != "x" {
		t.Errorf("ok response: %v %v", out, err)
	}
	if _, err := parseResponse(errResponse(errors.New("boom"))); err == nil {
		t.Error("error response produced no error")
	}
	if _, err := parseResponse([]byte{99}); err == nil {
		t.Error("unknown status accepted")
	}
}
