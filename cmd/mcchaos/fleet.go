//go:build unix

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
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The fleet layer: spawning, signalling and scraping real sdrd
// processes. Everything here talks to daemons the way a supervisor
// would — argv, signals, and the HTTP debug surface — never through
// in-process shortcuts, so the harness exercises the same machinery an
// operator's deployment does.

// daemon is one sdrd process slot. The slot (index, origin, listen
// address, relay attachment, cache file) outlives individual processes:
// a restart reuses the slot with a bumped incarnation.
type daemon struct {
	idx     int
	origin  netip.Addr
	listen  netip.AddrPort // the daemon's -listen UDP socket
	ingress netip.AddrPort // relay ingress this daemon sends to (-peers)
	http    netip.AddrPort // -http-debug address

	cacheFile   string
	logPath     string
	incarnation int
	// storageFaults, when set, is passed through as -storage-faults so
	// this slot's journaled cache runs over an injected-fault disk.
	storageFaults string

	cmd     *exec.Cmd
	logFile *os.File
	exited  chan error
}

// fleet manages the daemon slots of one chaos run.
type fleet struct {
	sdrd      string // sdrd binary path
	artifacts string
	master    uint64 // master seed; per-daemon seeds are mixed from it
	ds        []*daemon
	client    *http.Client
}

func newFleet(sdrd, artifacts string, master uint64, n int) *fleet {
	f := &fleet{
		sdrd:      sdrd,
		artifacts: artifacts,
		master:    master,
		client:    &http.Client{Timeout: 2 * time.Second},
	}
	for i := 0; i < n; i++ {
		f.ds = append(f.ds, &daemon{
			idx:       i,
			origin:    netip.AddrFrom4([4]byte{10, 0, byte(i), 1}),
			cacheFile: filepath.Join(artifacts, fmt.Sprintf("daemon-%d.cache", i)),
			logPath:   filepath.Join(artifacts, fmt.Sprintf("daemon-%d.log", i)),
		})
	}
	return f
}

// reservePort binds an ephemeral loopback port, records it, and
// releases it for the daemon to claim. The tiny steal window between
// close and the daemon's bind is acceptable on a loopback test fabric;
// a stolen port surfaces as a daemon startup failure, not silence.
func reservePort(network string) (netip.AddrPort, error) {
	switch network {
	case "udp":
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return netip.AddrPort{}, err
		}
		addr := c.LocalAddr().(*net.UDPAddr).AddrPort()
		return addr, c.Close()
	case "tcp":
		l, err := net.ListenTCP("tcp4", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return netip.AddrPort{}, err
		}
		addr := l.Addr().(*net.TCPAddr).AddrPort()
		return addr, l.Close()
	}
	return netip.AddrPort{}, fmt.Errorf("reservePort: unknown network %q", network)
}

// mixSeed derives one daemon incarnation's RNG seed from the master
// seed. Mixing the incarnation in matters: a restarted daemon with its
// dead predecessor's seed would re-allocate the predecessor's group and
// mirror-clash with its own ghost in every survivor's cache.
func mixSeed(master uint64, idx, incarnation int) uint64 {
	z := master ^ uint64(idx+1)*0x9e3779b97f4a7c15 ^ uint64(incarnation+1)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		return 1 // zero asks sdrd to derive its own seed; we need control
	}
	return z
}

// spawn starts (or restarts) the daemon in its slot. Daemon logs append
// to one file per slot across incarnations so a restart's history reads
// as one stream.
func (f *fleet) spawn(d *daemon) error {
	logFile, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("daemon %d: log: %w", d.idx, err)
	}
	fmt.Fprintf(logFile, "---- incarnation %d ----\n", d.incarnation)
	args := []string{
		"-origin", d.origin.String(),
		"-listen", d.listen.String(),
		"-peers", d.ingress.String(),
		"-announce", fmt.Sprintf("chaos-%d", d.idx),
		"-ttl", "15",
		"-seed", strconv.FormatUint(mixSeed(f.master, d.idx, d.incarnation), 10),
		"-announce-initial", "2s",
		"-max-sessions", "64",
		"-stale-after", "4s",
		"-cache", d.cacheFile,
		"-checkpoint", "500ms",
		"-http-debug", d.http.String(),
	}
	if d.storageFaults != "" {
		args = append(args, "-storage-faults", d.storageFaults)
	}
	cmd := exec.Command(f.sdrd, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		_ = logFile.Close()
		return fmt.Errorf("daemon %d: start: %w", d.idx, err)
	}
	d.cmd = cmd
	d.logFile = logFile
	d.exited = make(chan error, 1)
	go func(c *exec.Cmd, lf *os.File, ch chan error) {
		ch <- c.Wait()
		_ = lf.Close()
	}(cmd, logFile, d.exited)
	return nil
}

// signal delivers sig to the daemon's current process.
func (d *daemon) signal(sig os.Signal) error {
	if d.cmd == nil || d.cmd.Process == nil {
		return fmt.Errorf("daemon %d: no process", d.idx)
	}
	return d.cmd.Process.Signal(sig)
}

// waitExit blocks until the daemon's current process exits.
func (d *daemon) waitExit(timeout time.Duration) error {
	select {
	case <-d.exited:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("daemon %d: still running after %v", d.idx, timeout)
	}
}

// stopAll SIGTERMs every live daemon — exercising the graceful drain
// path — and escalates to SIGKILL only if a daemon overstays.
func (f *fleet) stopAll() {
	for _, d := range f.ds {
		if d.cmd != nil {
			_ = d.signal(syscall.SIGTERM)
		}
	}
	for _, d := range f.ds {
		if d.cmd == nil {
			continue
		}
		if err := d.waitExit(5 * time.Second); err != nil {
			_ = d.signal(syscall.SIGKILL)
			_ = d.waitExit(2 * time.Second)
		}
	}
}

// get fetches one debug endpoint, returning body and status.
func (f *fleet) get(d *daemon, path string) (string, int, error) {
	resp, err := f.client.Get("http://" + d.http.String() + path)
	if err != nil {
		return "", 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", resp.StatusCode, err
	}
	return string(body), resp.StatusCode, nil
}

// waitReady polls /readyz until the daemon reports ready.
func (f *fleet) waitReady(d *daemon, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if _, code, err := f.get(d, "/readyz"); err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon %d: not ready after %v", d.idx, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// metrics scrapes and parses /metrics into name → value. Histogram
// bucket lines carry labels and are skipped; the invariants only read
// scalar families.
func (f *fleet) metrics(d *daemon) (map[string]float64, error) {
	body, code, err := f.get(d, "/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("daemon %d: /metrics status %d", d.idx, code)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		out[name] = v
	}
	return out, nil
}

// sessRow is one parsed /sessions line: key, group, ttl, name.
type sessRow struct {
	key   string
	group string
	name  string
}

// originOf extracts the origin half of a session key ("origin/id").
func originOf(key string) string {
	o, _, _ := strings.Cut(key, "/")
	return o
}

// sessions scrapes and parses the daemon's live session table.
func (f *fleet) sessions(d *daemon) ([]sessRow, error) {
	body, code, err := f.get(d, "/sessions")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("daemon %d: /sessions status %d", d.idx, code)
	}
	var rows []sessRow
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, "\t", 4)
		if len(parts) != 4 {
			return nil, fmt.Errorf("daemon %d: bad /sessions line %q", d.idx, line)
		}
		rows = append(rows, sessRow{key: parts[0], group: parts[1], name: parts[3]})
	}
	return rows, nil
}

// ownRow finds the daemon's own announcement in its session table:
// the row whose key origin matches the daemon's origin and is not a
// known ghost of a previous incarnation.
func (f *fleet) ownRow(d *daemon, ghosts map[string]bool) (sessRow, bool, error) {
	rows, err := f.sessions(d)
	if err != nil {
		return sessRow{}, false, err
	}
	for _, r := range rows {
		if originOf(r.key) == d.origin.String() && !ghosts[r.key] {
			return r, true, nil
		}
	}
	return sessRow{}, false, nil
}
