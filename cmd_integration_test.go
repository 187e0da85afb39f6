package prisma_test

// End-to-end integration of the shipped binaries: prisma-datagen writes a
// dataset, prisma-server serves it on a UNIX socket, prisma-ctl inspects
// and tunes it over the same socket, a client in the test's process reads
// through it, and prisma-trace reads the I/O trace the server writes at
// shutdown.

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	prisma "github.com/dsrhaslab/prisma-go"
	"github.com/dsrhaslab/prisma-go/internal/ipc"
)

// buildCommands compiles the three binaries once into a temp dir.
func buildCommands(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	for _, cmd := range []string{"prisma-server", "prisma-ctl", "prisma-datagen"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
	return bin
}

func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildCommands(t)
	dataDir := t.TempDir()

	// 1. Generate a small dataset.
	out, err := exec.Command(filepath.Join(bin, "prisma-datagen"),
		"-dir", dataDir, "-train-files", "64", "-val-files", "8", "-mean-size", "4096").CombinedOutput()
	if err != nil {
		t.Fatalf("datagen: %v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "manifest.txt")); err != nil {
		t.Fatalf("manifest missing: %v", err)
	}

	// 2. Start the server, recording its device reads.
	sock := filepath.Join(t.TempDir(), "it.sock")
	tracePath := filepath.Join(t.TempDir(), "io.trace")
	server := exec.Command(filepath.Join(bin, "prisma-server"),
		"-dir", dataDir, "-socket", sock, "-interval", "50ms", "-trace", tracePath)
	serverOut := &strings.Builder{}
	server.Stdout, server.Stderr = serverOut, serverOut
	if err := server.Start(); err != nil {
		t.Fatalf("server start: %v", err)
	}
	defer func() {
		_ = server.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { _ = server.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = server.Process.Kill()
			<-done
		}
	}()

	// Wait for the socket to appear.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(sock); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("socket never appeared; server output:\n%s", serverOut.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	ctl := func(args ...string) string {
		t.Helper()
		full := append([]string{"-socket", sock}, args...)
		out, err := exec.Command(filepath.Join(bin, "prisma-ctl"), full...).CombinedOutput()
		if err != nil {
			t.Fatalf("ctl %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	// 3. Ping and tune over the control path.
	if got := ctl("ping"); !strings.Contains(got, "ok") {
		t.Fatalf("ping = %q", got)
	}
	ctl("set", "producers=4", "buffer=32")
	stats := ctl("stats")
	if !strings.Contains(stats, "producers (t):    4") {
		t.Fatalf("stats after set producers=4:\n%s", stats)
	}
	if !strings.Contains(stats, "/32") {
		t.Fatalf("stats after set buffer=32:\n%s", stats)
	}
	// A refused setting exits non-zero and changes nothing.
	for _, bad := range [][]string{{"producers=NaN"}, {"nosuch=1"}, {"buffer=8", "producers=0"}} {
		full := append([]string{"-socket", sock, "set"}, bad...)
		if out, err := exec.Command(filepath.Join(bin, "prisma-ctl"), full...).CombinedOutput(); err == nil {
			t.Fatalf("ctl set %v accepted: %s", bad, out)
		}
		if got := ctl("stats"); !strings.Contains(got, "producers (t):    4") || !strings.Contains(got, "/32") {
			t.Fatalf("stats after refused set %v:\n%s", bad, got)
		}
	}

	// 4. Submit a plan from a file (names come from the manifest).
	manifest, err := os.ReadFile(filepath.Join(dataDir, "manifest.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(string(manifest), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && strings.HasPrefix(fields[0], "train/") {
			names = append(names, fields[0])
		}
	}
	if len(names) != 64 {
		t.Fatalf("parsed %d train names, want 64", len(names))
	}
	planPath := filepath.Join(t.TempDir(), "plan.txt")
	if err := os.WriteFile(planPath, []byte(strings.Join(names, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := ctl("plan", planPath); !strings.Contains(got, "64 files") {
		t.Fatalf("plan = %q", got)
	}

	// 5. The plan must reach the data plane: queue length + prefetched
	//    counts become visible in stats once producers drain the queue.
	deadline = time.Now().Add(10 * time.Second)
	for {
		stats = ctl("stats")
		if strings.Contains(stats, "prefetched files: ") && !strings.Contains(stats, "prefetched files: 0") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("producers never prefetched; stats:\n%s", stats)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// 6. A reader in another process than the server's: its payloads come
	//    out of the server's shared arena, where the build has one.
	c, err := prisma.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, name := range names[:4] {
		got, err := c.Read(name)
		if err != nil {
			t.Fatalf("Read(%s): %v", name, err)
		}
		if want, _ := os.ReadFile(filepath.Join(dataDir, name)); !bytes.Equal(got, want) {
			t.Fatalf("Read(%s): %d bytes, not the file's %d", name, len(got), len(want))
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	arena, inline := st.ArenaPayloads, st.InlinePayloads
	if !ipc.ArenaSupported {
		arena, inline = inline, arena
	}
	if arena < 4 || inline != 0 {
		t.Fatalf("payloads: %d in the arena, %d inline; want every one of at least 4 in the arena (inline without one)",
			st.ArenaPayloads, st.InlinePayloads)
	}
	if stats = ctl("stats"); !strings.Contains(stats, "in the arena") {
		t.Fatalf("stats without the arena's payload count:\n%s", stats)
	}

	// 7. Bad invocations fail cleanly.
	if out, err := exec.Command(filepath.Join(bin, "prisma-ctl"), "-socket", sock, "set-producers", "4").CombinedOutput(); err == nil {
		t.Fatalf("ctl accepted a retired subcommand: %s", out)
	}
	if out, err := exec.Command(filepath.Join(bin, "prisma-server"), "-socket", sock).CombinedOutput(); err == nil {
		t.Fatalf("server without -dir succeeded: %s", out)
	}

	// 8. Shut the server down: it writes its I/O trace, one device-read
	//    span per read its producers made, and prisma-trace summarizes it.
	c.Close()
	if err := server.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := server.Wait(); err != nil {
		t.Fatalf("server exit: %v\n%s", err, serverOut.String())
	}
	trace := filepath.Join(t.TempDir(), "prisma-trace")
	if out, err := exec.Command("go", "build", "-o", trace, "./cmd/prisma-trace").CombinedOutput(); err != nil {
		t.Fatalf("building prisma-trace: %v\n%s", err, out)
	}
	out, err = exec.Command(trace, "summary", tracePath).CombinedOutput()
	if err != nil {
		t.Fatalf("prisma-trace summary: %v\n%s", err, out)
	}
	var events, errs int
	if _, err := fmt.Sscanf(string(out), "events: %d (%d errors)", &events, &errs); err != nil || events < 4 || errs != 0 {
		t.Fatalf("summary of the server's trace: want at least the 4 reads, no error:\n%s", out)
	}

	// 9. A trace the server cannot write at shutdown fails the run: the
	//    error is logged and the exit status is non-zero.
	sock = filepath.Join(t.TempDir(), "lost.sock")
	lost := exec.Command(filepath.Join(bin, "prisma-server"),
		"-dir", dataDir, "-socket", sock, "-trace", filepath.Join(t.TempDir(), "no", "such", "dir", "io.trace"))
	lostOut := &strings.Builder{}
	lost.Stdout, lost.Stderr = lostOut, lostOut
	if err := lost.Start(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if _, err := os.Stat(sock); err == nil {
			break
		}
		if time.Now().After(deadline) {
			_ = lost.Process.Kill()
			_ = lost.Wait()
			t.Fatalf("socket never appeared; server output:\n%s", lostOut.String())
		}
	}
	if err := lost.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := lost.Wait(); err == nil || !strings.Contains(lostOut.String(), "io.trace") {
		t.Fatalf("server exit %v with its I/O trace unwritable, want a non-zero exit naming the trace:\n%s", err, lostOut.String())
	}
}

func TestBenchAndTraceBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"prisma-bench", "prisma-trace"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}

	// A tiny fig3 run produces both CDF tables.
	out, err := exec.Command(filepath.Join(bin, "prisma-bench"),
		"-scale", "0.001", "-runs", "1", "-models", "lenet", "-quiet", "fig3").CombinedOutput()
	if err != nil {
		t.Fatalf("prisma-bench fig3: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"tf-optimized", "prisma", "cumulative", "max threads"} {
		if !strings.Contains(text, want) {
			t.Errorf("fig3 output missing %q:\n%s", want, text)
		}
	}
	// Unknown targets fail.
	if out, err := exec.Command(filepath.Join(bin, "prisma-bench"), "nonsense").CombinedOutput(); err == nil {
		t.Fatalf("unknown target accepted: %s", out)
	}

	// prisma-trace analyzes a hand-written trace: a line written before
	// the trace was a span file, a device-read span, and a span of another
	// stage, which is not a read.
	tracePath := filepath.Join(t.TempDir(), "t.jsonl")
	traceContent := `{"at":0,"name":"a","size":100,"latency":1000000}
{"stage":"device-read","at":500000,"name":"b","size":200,"latency":2000000}
{"trace":7,"stage":"buffer-park","at":0,"name":"c","latency":9000000}
`
	if err := os.WriteFile(tracePath, []byte(traceContent), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(filepath.Join(bin, "prisma-trace"), "summary", tracePath).CombinedOutput()
	if err != nil {
		t.Fatalf("prisma-trace summary: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "events:        2") {
		t.Errorf("summary output unexpected:\n%s", out)
	}
	// An I/O trace written before the trace was a span file: one read and
	// one metadata lookup ("op":"size"), which is no read.
	oldPath := filepath.Join(t.TempDir(), "old.jsonl")
	oldContent := `{"at":0,"name":"a","size":100,"latency":1000000}
{"at":2000000,"name":"a","size":100,"latency":10000,"op":"size"}
`
	if err := os.WriteFile(oldPath, []byte(oldContent), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(filepath.Join(bin, "prisma-trace"), "summary", oldPath).CombinedOutput()
	if err != nil {
		t.Fatalf("prisma-trace summary of an old trace: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "events:        1 ") {
		t.Errorf("old trace: want its one read counted, not its lookup:\n%s", out)
	}
	out, err = exec.Command(filepath.Join(bin, "prisma-trace"), "-bucket", "1ms", "timeline", tracePath).CombinedOutput()
	if err != nil {
		t.Fatalf("prisma-trace timeline: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "█") {
		t.Errorf("timeline output missing bars:\n%s", out)
	}
	// Garbage trace fails cleanly.
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	_ = os.WriteFile(bad, []byte("{nope"), 0o644)
	if out, err := exec.Command(filepath.Join(bin, "prisma-trace"), "summary", bad).CombinedOutput(); err == nil {
		t.Fatalf("garbage trace accepted: %s", out)
	}
}

func TestDatagenRejectsMissingDir(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildCommands(t)
	if out, err := exec.Command(filepath.Join(bin, "prisma-datagen")).CombinedOutput(); err == nil {
		t.Fatalf("datagen without -dir succeeded: %s", out)
	}
}

// TestServerRejectsOrphanSubFlags: every prisma-server flag that only tunes an
// optional layer says in its help which flag turns the layer on, and set
// without that flag it stops the server with that message instead of being
// silently ignored. The cases are read from the binary's own help, one per
// row of its requirement table.
func TestServerRejectsOrphanSubFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	server := filepath.Join(buildCommands(t), "prisma-server")
	help, _ := exec.Command(server, "-h").CombinedOutput()
	lines := strings.Split(string(help), "\n")
	rows := 0
	for i, line := range lines {
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(fields[0], "-") || i+1 == len(lines) {
			continue
		}
		// The usage text follows the flag line; it may wrap.
		usage := ""
		for j := i + 1; j < len(lines) && strings.HasPrefix(lines[j], "    "); j++ {
			usage += lines[j]
		}
		_, req, ok := strings.Cut(usage, "(requires -")
		if !ok {
			continue
		}
		flagName, requires := fields[0], "-"+strings.TrimSuffix(strings.Fields(req)[0], ")")
		arg := flagName // a bool flag
		if len(fields) > 1 {
			arg += "=1"
		}
		rows++
		t.Run(flagName[1:], func(t *testing.T) {
			out, err := exec.Command(server, "-dir", t.TempDir(), "-socket", filepath.Join(t.TempDir(), "s.sock"), arg).CombinedOutput()
			if err == nil {
				t.Fatalf("%s without %s started:\n%s", arg, requires, out)
			}
			if want := flagName + " requires " + requires; !strings.Contains(string(out), want) {
				t.Fatalf("%s without %s: want %q, got:\n%s", arg, requires, want, out)
			}
		})
	}
	if rows < 17 {
		t.Fatalf("only %d flags declare a requirement in prisma-server -h:\n%s", rows, help)
	}
}
