package sessiondir_test

// End-to-end test of the sdrd daemon binary: two processes over unicast
// UDP on loopback must exchange session announcements, exactly as the
// README's -peers example promises.

import (
	"bytes"
	"fmt"
	"net"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// freePorts reserves n distinct UDP ports by binding and releasing them.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, 0, n)
	conns := make([]*net.UDPConn, 0, n)
	for len(ports) < n {
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		ports = append(ports, c.LocalAddr().(*net.UDPAddr).Port)
	}
	for _, c := range conns {
		c.Close()
	}
	return ports
}

// syncBuffer is a daemon's log: exec's copying goroutine writes it while
// the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startSdrd runs the daemon binary itself — not `go run`, whose child a
// signal would miss — logging to a buffer the test reads as it goes. A
// daemon the test has not stopped is killed at cleanup.
func startSdrd(t *testing.T, bin string, args ...string) (*exec.Cmd, *syncBuffer) {
	t.Helper()
	out := &syncBuffer{}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	return cmd, out
}

// stopSdrd ends a daemon with SIGTERM, as an operator would, and fails
// unless it exits cleanly in time.
func stopSdrd(t *testing.T, cmd *exec.Cmd, out *syncBuffer) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil || !strings.Contains(out.String(), "sdrd exiting") {
			failDaemon(t, fmt.Sprintf("daemon did not exit cleanly on SIGTERM (%v)", err), out.String())
		}
	case <-time.After(scaled(30 * time.Second)):
		failDaemon(t, "daemon still running 30s after SIGTERM", out.String())
	}
}

// failDaemon fails the test on check, naming it before the daemon's output
// and again after it, so neither the head nor the tail of a long log loses
// which check failed.
func failDaemon(t *testing.T, check, output string) {
	t.Helper()
	t.Fatalf("%s\n--- daemon output ---\n%s\n--- end of daemon output; failed: %s", check, output, check)
}

// debugAddr waits for a daemon started with -http-debug 127.0.0.1:0 to log
// the address its debug server is listening on, and returns it. The kernel
// picks the port as the daemon binds it, so no other process can take it
// between a test's choice and the daemon's bind.
func debugAddr(t *testing.T, out *syncBuffer) string {
	t.Helper()
	const logged = "http-debug listening on http://"
	deadline := time.Now().Add(scaled(30 * time.Second))
	for {
		log := out.String()
		if i := strings.Index(log, logged); i >= 0 {
			if addr, _, ok := strings.Cut(log[i+len(logged):], "/metrics"); ok {
				return addr
			}
		}
		if time.Now().After(deadline) {
			failDaemon(t, "daemon never logged its http-debug address", log)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitForLog polls until every daemon log contains its wanted string.
func waitForLog(t *testing.T, timeout time.Duration, outs []*syncBuffer, wants []string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for i := 0; i < len(outs); {
		if strings.Contains(outs[i].String(), wants[i]) {
			i++
			continue
		}
		if time.Now().After(deadline) {
			failDaemon(t, fmt.Sprintf("daemon %d never logged %q", i+1, wants[i]), outs[i].String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestSdrdBinaryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the toolchain")
	}
	bin := buildSdrd(t)
	ports := freePorts(t, 2)
	addr1 := fmt.Sprintf("127.0.0.1:%d", ports[0])
	addr2 := fmt.Sprintf("127.0.0.1:%d", ports[1])

	// Distinct origins: two daemons on one origin whose first creates fall
	// in one ID tick announce one session key
	// (TestSameOriginCreatesShareAKeyWithinAnIDTick).
	run := func(origin, listen, peer, announceName string) (*exec.Cmd, *syncBuffer) {
		return startSdrd(t, bin,
			"-origin", origin,
			"-listen", listen,
			"-peers", peer,
			"-announce", announceName,
			"-ttl", "63",
			"-for", scaled(2*time.Minute).String(), // a backstop: the test stops them
		)
	}
	cmd1, out1 := run("127.0.0.1", addr1, addr2, "alpha-session")
	cmd2, out2 := run("127.0.0.2", addr2, addr1, "beta-session")

	// Each daemon must learn the other's session.
	waitForLog(t, scaled(time.Minute), []*syncBuffer{out1, out2}, []string{"beta-session", "alpha-session"})
	stopSdrd(t, cmd1, out1)
	stopSdrd(t, cmd2, out2)
}
