package ipc

import (
	"testing"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/obs"
)

// TestSpanContextPropagatesOverIPC proves the frame header's trace field
// carries the client's span context into the server: the client-side ipc
// span and the server-side ipc-serve span of one read share a trace id.
func TestSpanContextPropagatesOverIPC(t *testing.T) {
	_, stage, names, sock := startServer(t, 2)
	serverTracer := stage.Tracer()
	stage.SetTraceSampling(1)

	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	clientTracer := obs.NewTracer(conc.NewReal(), obs.TracerOptions{Sampling: 1, Seed: 99})
	c.SetTracer(clientTracer)

	if err := c.SubmitPlan(names[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(names[0]); err != nil {
		t.Fatal(err)
	}

	ipcSpans := clientTracer.SpansFor(obs.StageIPC)
	if len(ipcSpans) != 1 {
		t.Fatalf("client recorded %d ipc spans, want 1", len(ipcSpans))
	}
	cs := ipcSpans[0]
	if cs.Name != names[0] || cs.Latency <= 0 {
		t.Errorf("client ipc span = %+v", cs)
	}
	if cs.Trace>>32 != 99 {
		t.Errorf("client trace id %#x not in the client tracer's namespace", cs.Trace)
	}

	serveSpans := serverTracer.SpansFor(obs.StageIPCServe)
	if len(serveSpans) != 1 {
		t.Fatalf("server recorded %d ipc-serve spans, want 1", len(serveSpans))
	}
	ss := serveSpans[0]
	if ss.Trace != cs.Trace {
		t.Errorf("trace id did not round-trip: client %#x, server %#x", cs.Trace, ss.Trace)
	}
	if ss.Name != names[0] {
		t.Errorf("server span names %q, want %q", ss.Name, names[0])
	}
	if ss.Latency > cs.Latency {
		t.Errorf("server handling %v exceeds client round trip %v", ss.Latency, cs.Latency)
	}

	// The consumer-wait span the server's buffer recorded for this read
	// carries the propagated trace too (the whole read-side lifecycle is
	// stitched by one id).
	waits := serverTracer.SpansFor(obs.StageConsumerWait)
	if len(waits) != 1 {
		t.Fatalf("server recorded %d consumer-wait spans, want 1", len(waits))
	}
	if waits[0].Trace != cs.Trace {
		t.Errorf("consumer-wait trace %#x, want %#x", waits[0].Trace, cs.Trace)
	}
}

// TestUnsampledReadCrossesIPCSilently: with client sampling off the frame
// carries trace 0 and neither side records read spans — the sampled-off hot
// path stays span-free end to end.
func TestUnsampledReadCrossesIPCSilently(t *testing.T) {
	_, stage, names, sock := startServer(t, 1)
	serverTracer := stage.Tracer()
	stage.SetTraceSampling(1)

	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTracer(obs.NewTracer(conc.NewReal(), obs.TracerOptions{Sampling: 0, Seed: 99}))

	if _, err := c.Read(names[0]); err != nil {
		t.Fatal(err)
	}
	if n := len(serverTracer.SpansFor(obs.StageIPCServe)); n != 0 {
		t.Errorf("server recorded %d ipc-serve spans for an unsampled read", n)
	}
	if n := len(serverTracer.SpansFor(obs.StageConsumerWait)); n != 0 {
		t.Errorf("server recorded %d consumer-wait spans for an unsampled read", n)
	}
}
