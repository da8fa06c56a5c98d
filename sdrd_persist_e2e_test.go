package sessiondir_test

// End-to-end crash-safety tests of the sdrd daemon: a SIGKILLed daemon
// must come back up with the sessions its periodic atomic checkpoints
// captured, and a corrupt cache file must degrade to a cold start, never a
// crash.

import (
	"fmt"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sessiondir"
	"sessiondir/internal/mcast"
	"sessiondir/internal/storage"
	"sessiondir/internal/transport"
)

// countCachedOffline loads a checkpoint the same way a restarted daemon
// would — framed snapshot plus journal, torn tail dropped — and reports
// how many sessions it recovers.
func countCachedOffline(t *testing.T, path string) int {
	t.Helper()
	bus := transport.NewBus()
	dir, err := sessiondir.New(sessiondir.Config{
		Origin:    netip.MustParseAddr("10.200.0.9"),
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

// buildSdrd compiles the daemon, once per test binary, so the kill test
// can signal the real process (with `go run`, signals hit the toolchain
// wrapper, not sdrd).
func buildSdrd(t *testing.T) string {
	t.Helper()
	return buildSdrdWith(t)
}

// sdrdBuilds holds the daemons buildSdrdWith compiled, by build flags, in
// one directory, which TestMain removes.
var sdrdBuilds struct {
	sync.Mutex
	dir  string
	bins map[string]string
}

// buildSdrdWith compiles the daemon with extra build flags (e.g. -race,
// so an e2e run exercises the journal path under the race detector), once
// per set of flags.
func buildSdrdWith(t *testing.T, buildFlags ...string) string {
	t.Helper()
	sdrdBuilds.Lock()
	defer sdrdBuilds.Unlock()
	flags := strings.Join(buildFlags, " ")
	if bin, ok := sdrdBuilds.bins[flags]; ok {
		return bin
	}
	if sdrdBuilds.dir == "" {
		dir, err := os.MkdirTemp("", "sdrd-root-e2e-")
		if err != nil {
			t.Fatal(err)
		}
		sdrdBuilds.dir, sdrdBuilds.bins = dir, map[string]string{}
	}
	bin := filepath.Join(sdrdBuilds.dir, fmt.Sprintf("sdrd-%d", len(sdrdBuilds.bins)))
	args := append([]string{"build"}, buildFlags...)
	args = append(args, "-o", bin, "./cmd/sdrd")
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	sdrdBuilds.bins[flags] = bin
	return bin
}

// TestMain removes the daemons the tests built.
func TestMain(m *testing.M) {
	code := m.Run()
	if sdrdBuilds.dir != "" {
		_ = os.RemoveAll(sdrdBuilds.dir)
	}
	os.Exit(code)
}

func TestSdrdKillRestartPersistence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the toolchain")
	}
	bin := buildSdrd(t)
	ports := freePorts(t, 2)
	addrA := fmt.Sprintf("127.0.0.1:%d", ports[0])
	addrB := fmt.Sprintf("127.0.0.1:%d", ports[1])
	cache := filepath.Join(t.TempDir(), "sd.cache")

	// A announces a session; B caches it with fast periodic checkpoints.
	// A re-announces a second after its first announcement, which goes
	// out before B may have bound its socket, not five.
	announcer := exec.Command(bin,
		"-origin", "127.0.0.1", "-listen", addrA, "-peers", addrB,
		"-announce", "durable-session", "-ttl", "63", "-announce-initial", "1s", "-for", "60s")
	if err := announcer.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = announcer.Process.Kill()
		_ = announcer.Wait()
	})

	var listenerOut strings.Builder
	listener := exec.Command(bin,
		"-origin", "127.0.0.2", "-listen", addrB, "-peers", addrA,
		"-cache", cache, "-checkpoint", "200ms", "-for", "60s")
	listener.Stdout = &listenerOut
	listener.Stderr = &listenerOut
	if err := listener.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait for a checkpoint that actually contains the learned session.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(cache); err == nil && strings.Contains(string(b), "durable-session") {
			break
		}
		if time.Now().After(deadline) {
			_ = listener.Process.Kill()
			_ = listener.Wait()
			failDaemon(t, "the listener never checkpointed durable-session to its cache", listenerOut.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Unclean exit: SIGKILL skips every deferred save. Only the atomic
	// checkpoints can have left a valid file.
	if err := listener.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = listener.Wait() // exits with the kill signal; that is the point

	// Restart on the same cache, with the announcer also gone, so the
	// cache is the only possible source of the session.
	_ = announcer.Process.Kill()
	_ = announcer.Wait()

	restarted, out := startSdrd(t, bin,
		"-origin", "127.0.0.2", "-listen", addrB, "-peers", addrA,
		"-cache", cache, "-http-debug", "127.0.0.1:0",
		"-for", scaled(2*time.Minute).String()) // a backstop: the test stops it
	debug := debugAddr(t, out)
	// The live session table proves the restored entry is in the
	// directory, not just counted at load time.
	deadline = time.Now().Add(scaled(30 * time.Second))
	for {
		if body, err := httpGet("http://" + debug + "/sessions"); err == nil && strings.Contains(body, "durable-session") {
			break
		}
		if time.Now().After(deadline) {
			failDaemon(t, "the restarted daemon never listed durable-session at /sessions", out.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	stopSdrd(t, restarted, out)
	if !strings.Contains(out.String(), "loaded 1 cached sessions") {
		failDaemon(t, `the restarted daemon did not log "loaded 1 cached sessions"`, out.String())
	}
}

// TestSdrdKillMidJournalAppendRecoversDurablePrefix SIGKILLs a daemon
// while learned-session deltas are streaming into the journal (long
// checkpoint interval, so the journal is the only durability carrier)
// and asserts recovery returns exactly the durable record prefix: an
// offline reader and a restarted daemon must agree on the session
// count, and a torn final record is dropped silently, never quarantined.
func TestSdrdKillMidJournalAppendRecoversDurablePrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the toolchain")
	}
	bin := buildSdrdWith(t, "-race")
	ports := freePorts(t, 4)
	listenAddr := fmt.Sprintf("127.0.0.1:%d", ports[0])
	cache := filepath.Join(t.TempDir(), "sd.cache")

	// Three announcers so the journal receives several learn deltas; the
	// kill can land between any two of them (or inside one).
	for i := 0; i < 3; i++ {
		a := exec.Command(bin,
			"-origin", fmt.Sprintf("127.0.0.%d", 10+i),
			"-listen", fmt.Sprintf("127.0.0.1:%d", ports[1+i]),
			"-peers", listenAddr,
			"-announce", fmt.Sprintf("journal-session-%d", i),
			"-ttl", "63", "-for", "60s")
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = a.Process.Kill()
			_ = a.Wait()
		})
	}

	var listenerOut strings.Builder
	listener := exec.Command(bin,
		"-origin", "127.0.0.2", "-listen", listenAddr,
		"-peers", fmt.Sprintf("127.0.0.1:%d", ports[1]),
		"-cache", cache, "-checkpoint", "1h", "-for", "60s")
	listener.Stdout = &listenerOut
	listener.Stderr = &listenerOut
	if err := listener.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = listener.Process.Kill()
		_ = listener.Wait()
	})

	// Kill as soon as at least one learn delta has reached the journal
	// file — the closest an external test can get to "mid-append".
	journal := cache + ".journal"
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(journal); err == nil && strings.Contains(string(b), "journal-session") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal never saw a session delta; listener output:\n%s", listenerOut.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := listener.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = listener.Wait()

	// The durable prefix, as an offline reader sees it.
	n := countCachedOffline(t, cache)
	if n > 3 {
		t.Fatalf("recovered %d sessions from a 3-session run", n)
	}

	// A restarted daemon must recover the identical prefix (both readers
	// replay the same snapshot + journal bytes and drop the same torn
	// tail). No file may have been quarantined: a torn tail is normal.
	var out strings.Builder
	restarted := exec.Command(bin,
		"-origin", "127.0.0.2", "-listen", listenAddr,
		"-peers", fmt.Sprintf("127.0.0.1:%d", ports[1]),
		"-cache", cache, "-for", "2s")
	restarted.Stdout = &out
	restarted.Stderr = &out
	if err := restarted.Run(); err != nil {
		t.Fatalf("restarted sdrd failed: %v\n%s", err, out.String())
	}
	if n > 0 {
		want := fmt.Sprintf("loaded %d cached sessions", n)
		if !strings.Contains(out.String(), want) {
			t.Fatalf("restart did not recover the durable prefix (want %q):\n%s", want, out.String())
		}
	} else if strings.Contains(out.String(), "cached sessions") {
		t.Fatalf("restart loaded sessions the offline reader could not see:\n%s", out.String())
	}
	if strings.Contains(out.String(), "quarantined") {
		t.Fatalf("torn tail was treated as corruption:\n%s", out.String())
	}
	entries, err := filepath.Glob(cache + ".corrupt-*")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > 0 {
		t.Fatalf("torn tail quarantined as %v", entries)
	}
}

func TestSdrdCorruptCacheColdStart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the toolchain")
	}
	bin := buildSdrd(t)
	ports := freePorts(t, 1)
	cache := filepath.Join(t.TempDir(), "sd.cache")
	// Not a framed checkpoint: a foreign file at the cache path. sdrd must
	// quarantine it, log it, and run cold rather than die.
	if err := os.WriteFile(cache, []byte("sdcache v1\nentry 100 200 4096\nchopped"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	cmd := exec.Command(bin,
		"-origin", "127.0.0.1",
		"-listen", fmt.Sprintf("127.0.0.1:%d", ports[0]),
		"-peers", "127.0.0.1:9",
		"-cache", cache, "-for", "2s")
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("sdrd died on a corrupt cache: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "cache load:") || !strings.Contains(out.String(), "starting cold") {
		t.Fatalf("corrupt cache not reported:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "sdrd exiting") {
		t.Fatalf("daemon did not exit cleanly:\n%s", out.String())
	}
	// The clean exit rewrote the cache atomically in the framed
	// checkpoint format; it must be valid now.
	b, err := os.ReadFile(cache)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "SDST") || strings.Contains(string(b), "chopped") {
		t.Fatalf("exit did not replace the corrupt cache: %q", b)
	}
	// The corrupt original was quarantined, not destroyed: an operator
	// can still inspect what the disk handed us.
	q, err := os.ReadFile(cache + ".corrupt-1")
	if err != nil {
		t.Fatalf("corrupt cache was not quarantined: %v", err)
	}
	if !strings.Contains(string(q), "chopped") {
		t.Fatalf("quarantined file lost the original bytes: %q", q)
	}
}
