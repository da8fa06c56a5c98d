package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sessiondir"
	"sessiondir/internal/mcast"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/storage"
	"sessiondir/internal/transport"
)

// End-to-end tests against the real binary: build sdrd once, spawn it
// with real sockets, and pin the shutdown ordering (drain the UDP read
// loop before the final checkpoint) and the health/readiness surface.

var (
	buildOnce sync.Once
	sdrdBin   string
	buildErr  error
)

// TestMain removes the binary builtSdrd built.
func TestMain(m *testing.M) {
	code := m.Run()
	if sdrdBin != "" {
		_ = os.RemoveAll(filepath.Dir(sdrdBin))
	}
	os.Exit(code)
}

func builtSdrd(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "sdrd-e2e-")
		if err != nil {
			buildErr = err
			return
		}
		sdrdBin = filepath.Join(dir, "sdrd")
		out, err := exec.Command("go", "build", "-o", sdrdBin, ".").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return sdrdBin
}

// reserveE2EPort grabs an ephemeral loopback port and frees it for the
// daemon to claim.
func reserveE2EPort(t *testing.T, network string) netip.AddrPort {
	t.Helper()
	switch network {
	case "udp":
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		addr := c.LocalAddr().(*net.UDPAddr).AddrPort()
		_ = c.Close()
		return addr
	default:
		l, err := net.ListenTCP("tcp4", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().(*net.TCPAddr).AddrPort()
		_ = l.Close()
		return addr
	}
}

// blackHole returns a bound-and-held UDP address that swallows the
// daemon's outbound announcements.
func blackHole(t *testing.T) netip.AddrPort {
	t.Helper()
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c.LocalAddr().(*net.UDPAddr).AddrPort()
}

// startSdrd spawns the built binary and returns the running command.
func startSdrd(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(builtSdrd(t), args...)
	logPath := filepath.Join(t.TempDir(), "sdrd.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
		_ = logFile.Close()
		if t.Failed() {
			if b, err := os.ReadFile(logPath); err == nil {
				t.Logf("sdrd log:\n%s", b)
			}
		}
	})
	return cmd
}

func httpGet(t *testing.T, addr netip.AddrPort, path string) (string, int) {
	t.Helper()
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get("http://" + addr.String() + path)
	if err != nil {
		return "", 0
	}
	defer func() { _ = resp.Body.Close() }()
	body, _ := io.ReadAll(resp.Body)
	return string(body), resp.StatusCode
}

func waitReadyz(t *testing.T, addr netip.AddrPort, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if _, code := httpGet(t, addr, "/readyz"); code == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon not ready after %v", timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// sendAnnouncements crafts n distinct peer announcements and fires them
// at the daemon's listen socket from one injector.
func sendAnnouncements(t *testing.T, target netip.AddrPort, n int) {
	t.Helper()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	for i := 0; i < n; i++ {
		desc := &session.Description{
			ID:      uint64(5000 + i),
			Version: 1,
			Origin:  netip.AddrFrom4([4]byte{10, 7, byte(i / 250), byte(1 + i%250)}),
			Name:    fmt.Sprintf("burst-%d", i),
			Group:   netip.AddrFrom4([4]byte{239, 254, byte(i >> 8), byte(i)}),
			TTL:     15,
			Media:   []session.Media{{Type: "audio", Port: 5004, Proto: "RTP/AVP", Format: "0"}},
		}
		payload, err := desc.MarshalSDP()
		if err != nil {
			t.Fatal(err)
		}
		pkt := sap.Packet{
			Type:      sap.Announce,
			MsgIDHash: sap.MsgIDHashOf(payload),
			Origin:    desc.Origin,
			Payload:   payload,
		}
		buf, err := pkt.Marshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.WriteToUDPAddrPort(buf, target); err != nil {
			t.Fatal(err)
		}
	}
}

// countCachedSessions loads a checkpoint file the same way a restarted
// daemon would and reports how many sessions it holds.
func countCachedSessions(t *testing.T, path string) int {
	t.Helper()
	bus := transport.NewBus()
	dir, err := sessiondir.New(sessiondir.Config{
		Origin:    netip.MustParseAddr("10.200.0.1"),
		Transport: bus.Endpoint(),
		Space:     mcast.SyntheticSpace(256),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	cs, _, err := sessiondir.OpenCacheStore(storage.NewOSFS(filepath.Dir(path)), filepath.Base(path), dir)
	if err != nil {
		t.Fatalf("loading checkpoint %s: %v", path, err)
	}
	defer cs.Close() // opened to read: nothing is buffered
	return cs.Loaded()
}

// TestShutdownDrainSavesTailBurst pins the shutdown ordering: a burst
// still queued in the kernel's socket buffer when SIGTERM lands must be
// drained into the final checkpoint, not discarded with the socket.
func TestShutdownDrainSavesTailBurst(t *testing.T) {
	listen := reserveE2EPort(t, "udp")
	debug := reserveE2EPort(t, "tcp")
	cache := filepath.Join(t.TempDir(), "sessions.cache")
	cmd := startSdrd(t,
		"-origin", "10.100.0.1",
		"-listen", listen.String(),
		"-peers", blackHole(t).String(),
		"-cache", cache,
		"-checkpoint", "0", // only the exit checkpoint: the drain alone must save the burst
		"-http-debug", debug.String(),
	)
	waitReadyz(t, debug, 10*time.Second)

	const burst = 120
	sendAnnouncements(t, listen, burst)
	// SIGTERM immediately: without the drain-before-checkpoint ordering
	// most of the burst is still in the kernel buffer and would be lost.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}

	if n := countCachedSessions(t, cache); n != burst {
		t.Fatalf("final checkpoint holds %d sessions, want %d", n, burst)
	}
}

// TestHealthAndSessionEndpoints scrapes the supervisor surface of a
// live daemon: /healthz, /readyz and the /sessions table.
func TestHealthAndSessionEndpoints(t *testing.T) {
	listen := reserveE2EPort(t, "udp")
	debug := reserveE2EPort(t, "tcp")
	cmd := startSdrd(t,
		"-origin", "10.100.0.2",
		"-listen", listen.String(),
		"-peers", blackHole(t).String(),
		"-announce", "probe target",
		"-http-debug", debug.String(),
	)
	waitReadyz(t, debug, 10*time.Second)

	if body, code := httpGet(t, debug, "/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}
	if body, code := httpGet(t, debug, "/readyz"); code != http.StatusOK || strings.TrimSpace(body) != "ready" {
		t.Fatalf("/readyz = %d %q, want 200 ready", code, body)
	}
	body, code := httpGet(t, debug, "/sessions")
	if code != http.StatusOK {
		t.Fatalf("/sessions = %d", code)
	}
	var found bool
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, "\t", 4)
		if len(parts) != 4 {
			t.Fatalf("bad /sessions line %q", line)
		}
		if strings.HasPrefix(parts[0], "10.100.0.2/") && parts[3] == "probe target" {
			found = true
		}
	}
	if !found {
		t.Fatalf("own session missing from /sessions:\n%s", body)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}
