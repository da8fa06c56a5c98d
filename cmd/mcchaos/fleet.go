//go:build unix

package main

import (
	"cmp"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sessiondir/internal/chaos"
	"sessiondir/internal/fault"
	"sessiondir/internal/relay"
)

// The process backend of chaos.Schedule: spawning, signalling and
// scraping real sdrd processes wired together through the UDP fault
// relay. Everything here talks to daemons the way a supervisor would —
// argv, signals, and the HTTP debug surface — never through in-process
// shortcuts, so the schedule exercises the same machinery an operator's
// deployment does.

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

	cmd    *exec.Cmd
	exited chan error
}

// fleet manages the daemon slots of one chaos run.
type fleet struct {
	sdrd   string // sdrd binary path
	master uint64 // master seed; per-daemon seeds are mixed from it
	ds     []*daemon
	client *http.Client
	relay  *relay.Relay
	// inject sends scripted datagrams straight at the daemons' listen
	// sockets, past the relay: injected traffic is part of the script, so
	// it must arrive deterministically, unfaulted.
	inject *net.UDPConn
}

func newFleet(sdrd, artifacts string, master uint64, n int) (*fleet, error) {
	r, err := relay.New(relay.Config{Seed: master})
	if err != nil {
		return nil, err
	}
	inj, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		_ = r.Close()
		return nil, err
	}
	f := &fleet{
		sdrd:   sdrd,
		master: master,
		client: &http.Client{Timeout: 2 * time.Second},
		relay:  r,
		inject: inj,
	}
	for i := 0; i < n; i++ {
		f.ds = append(f.ds, &daemon{
			idx:       i,
			origin:    netip.AddrFrom4([4]byte{10, 0, byte(i), 1}),
			cacheFile: filepath.Join(artifacts, fmt.Sprintf("daemon-%d.cache", i)),
			logPath:   filepath.Join(artifacts, fmt.Sprintf("daemon-%d.log", i)),
		})
	}
	return f, nil
}

// close stops every daemon, then the injector and the relay, and logs
// what the relay did.
func (f *fleet) close() {
	f.stopAll()
	_ = f.inject.Close()
	s := f.relay.Stats()
	log.Printf("relay: forwarded=%d dropped=%d duplicated=%d corrupted=%d delayed=%d partition_drops=%d",
		s.Forwarded, s.Dropped, s.Duplicated, s.Corrupted, s.Delayed, s.PartitionDrops)
	_ = f.relay.Close()
}

// Spawn reserves each slot's sockets, attaches it to the relay, starts
// every daemon and waits until each is ready.
func (f *fleet) Spawn(diskAgent int, diskFaults string) error {
	var err error
	for _, d := range f.ds {
		if d.listen, err = reservePort("udp"); err != nil {
			return err
		}
		if d.http, err = reservePort("tcp"); err != nil {
			return err
		}
		if d.ingress, _, err = f.relay.Attach(d.listen); err != nil {
			return err
		}
		if d.idx == diskAgent {
			d.storageFaults = diskFaults
		}
	}
	for _, d := range f.ds {
		if err := f.spawn(d); err != nil {
			return err
		}
	}
	for _, d := range f.ds {
		if err := f.waitReady(d, 10*time.Second); err != nil {
			return err
		}
	}
	return nil
}

// SetFaults installs profile on every relay link.
func (f *fleet) SetFaults(p fault.Profile) { f.relay.SetLink(-1, -1, p) }

// Partition installs the partition in the relay.
func (f *fleet) Partition(groups ...[]int) int {
	f.relay.Partition(groups...)
	return f.relay.SeveredLinks()
}

// Heal removes the relay's partition.
func (f *fleet) Heal() { f.relay.Heal() }

// Inject sends copies of pkt to every daemon's listen socket.
func (f *fleet) Inject(pkt []byte, copies int) error {
	for _, d := range f.ds {
		for range copies {
			if _, err := f.inject.WriteToUDPAddrPort(pkt, d.listen); err != nil {
				return fmt.Errorf("inject to daemon %d: %w", d.idx, err)
			}
		}
	}
	return nil
}

// Kill SIGKILLs daemon i and waits for the process to exit.
func (f *fleet) Kill(i int) error {
	d := f.ds[i]
	if err := d.signal(syscall.SIGKILL); err != nil {
		return err
	}
	return d.waitExit(5 * time.Second)
}

// Restart spawns daemon i's next incarnation over its cache file and
// waits until it is ready.
func (f *fleet) Restart(i int) error {
	d := f.ds[i]
	d.incarnation++
	if err := f.spawn(d); err != nil {
		return err
	}
	return f.waitReady(d, 10*time.Second)
}

// Freeze SIGSTOPs daemon i.
func (f *fleet) Freeze(i int) error { return f.ds[i].signal(syscall.SIGSTOP) }

// Thaw SIGCONTs daemon i.
func (f *fleet) Thaw(i int) error { return f.ds[i].signal(syscall.SIGCONT) }

// Run does the events at their times on the wall clock.
func (f *fleet) Run(events []chaos.Event, d time.Duration) {
	start := time.Now()
	events = slices.Clone(events)
	slices.SortStableFunc(events, func(a, b chaos.Event) int { return cmp.Compare(a.At, b.At) })
	for _, ev := range events {
		if ev.At > d {
			break
		}
		time.Sleep(time.Until(start.Add(ev.At)))
		ev.Do(f)
	}
	time.Sleep(time.Until(start.Add(d)))
}

// Health probes daemon i's /healthz and /readyz.
func (f *fleet) Health(i int) (live, ready bool) {
	body, code, err := f.get(f.ds[i], "/healthz")
	live = err == nil && code == http.StatusOK && strings.TrimSpace(body) == "ok"
	_, code, err = f.get(f.ds[i], "/readyz")
	return live, err == nil && code == http.StatusOK
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
		"-ttl", strconv.Itoa(chaos.AgentTTL),
		"-seed", strconv.FormatUint(chaos.MixSeed(f.master, d.idx, d.incarnation), 10),
		"-announce-initial", chaos.AgentAnnounceInitial.String(),
		"-max-sessions", strconv.Itoa(chaos.AgentMaxSessions),
		"-stale-after", chaos.AgentStaleAfter.String(),
		"-cache", d.cacheFile,
		"-checkpoint", chaos.AgentCheckpoint.String(),
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

// Metrics scrapes and parses daemon i's /metrics into name → value.
// Histogram bucket lines carry labels and are skipped; the invariants
// only read scalar families.
func (f *fleet) Metrics(i int) (map[string]float64, error) {
	body, code, err := f.get(f.ds[i], "/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("daemon %d: /metrics status %d", i, code)
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

// Sessions scrapes and parses daemon i's live session table: one line
// per session, key, group, TTL and name. A row is the daemon's own when
// its key's origin is the daemon's.
func (f *fleet) Sessions(i int) ([]chaos.Row, error) {
	d := f.ds[i]
	body, code, err := f.get(d, "/sessions")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("daemon %d: /sessions status %d", i, code)
	}
	var rows []chaos.Row
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, "\t", 4)
		if len(parts) != 4 {
			return nil, fmt.Errorf("daemon %d: bad /sessions line %q", i, line)
		}
		group, err := netip.ParseAddr(parts[1])
		if err != nil {
			return nil, fmt.Errorf("daemon %d: /sessions group %q: %w", i, parts[1], err)
		}
		origin, _, _ := strings.Cut(parts[0], "/")
		rows = append(rows, chaos.Row{Key: parts[0], Group: group, Own: origin == d.origin.String()})
	}
	return rows, nil
}
