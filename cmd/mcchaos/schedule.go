//go:build unix

package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"net/netip"
	"strings"
	"syscall"
	"time"

	"sessiondir/internal/fault"
	"sessiondir/internal/relay"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/stats"
)

// A schedule is one scripted chaos scenario. Every randomized choice it
// makes (kill victim, partition split) is drawn from the master seed in
// a fixed order, and every line it writes to the verdict log is a pure
// function of those draws plus invariant outcomes — never of ports,
// PIDs, timings or metric values — so two runs with the same seed
// produce byte-identical verdicts.
type schedule struct {
	name          string
	crowdSessions int           // flash-crowd announcements injected
	crowdWaves    int           // injection waves (later waves hit level-2 sampling)
	waveGap       time.Duration // pause between waves
	freezeFor     time.Duration // SIGSTOP one daemon this long (0 = skip)
	partitionHold time.Duration // how long the partition stays up
	convergeWait  time.Duration // post-heal convergence deadline
	baseline      fault.Profile
}

// quickSchedule is the CI tier: bounded around a minute end to end.
func quickSchedule() schedule {
	return schedule{
		name:          "quick",
		crowdSessions: 150,
		crowdWaves:    2,
		waveGap:       1500 * time.Millisecond,
		partitionHold: 8 * time.Second,
		convergeWait:  25 * time.Second,
		baseline: fault.Profile{
			Loss: 0.05, Duplicate: 0.02, Corrupt: 0.01,
			DelayMin: time.Millisecond, DelayMax: 10 * time.Millisecond,
		},
	}
}

// extendedSchedule is the nightly tier: a bigger crowd, a SIGSTOP
// freeze, a longer partition, rougher links.
func extendedSchedule() schedule {
	return schedule{
		name:          "extended",
		crowdSessions: 400,
		crowdWaves:    3,
		waveGap:       1500 * time.Millisecond,
		freezeFor:     5 * time.Second,
		partitionHold: 15 * time.Second,
		convergeWait:  45 * time.Second,
		baseline: fault.Profile{
			Loss: 0.10, Duplicate: 0.05, Corrupt: 0.02,
			DelayMin: time.Millisecond, DelayMax: 25 * time.Millisecond,
		},
	}
}

// diskFaultProfile is the fault schedule for the disk-fault daemon:
// write-path probabilities high enough that checkpoint compactions and
// journal appends fail repeatedly over a run, while the read and
// metadata paths stay clean so startup recovery always succeeds.
const diskFaultProfile = "write=0.08,short=0.05,nospace=0.04,sync=0.2"

// injector pushes crafted SAP announcements straight at daemon listen
// sockets, bypassing the relay: injected traffic is part of the script,
// so it must arrive deterministically, unfaulted.
type injector struct {
	conn *net.UDPConn
}

func newInjector() (*injector, error) {
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	return &injector{conn: c}, nil
}

func (in *injector) close() { _ = in.conn.Close() }

// announce marshals desc and sends copies of it to every target.
func (in *injector) announce(desc *session.Description, targets []netip.AddrPort, copies int) error {
	payload, err := desc.MarshalSDP()
	if err != nil {
		return fmt.Errorf("inject %q: %w", desc.Name, err)
	}
	pkt := sap.Packet{
		Type:      sap.Announce,
		MsgIDHash: sap.MsgIDHashOf(payload),
		Origin:    desc.Origin,
		Payload:   payload,
	}
	buf, err := pkt.Marshal(nil)
	if err != nil {
		return fmt.Errorf("inject %q: %w", desc.Name, err)
	}
	for _, t := range targets {
		for c := 0; c < copies; c++ {
			if _, err := in.conn.WriteToUDPAddrPort(buf, t); err != nil {
				return fmt.Errorf("inject %q to %s: %w", desc.Name, t, err)
			}
		}
	}
	return nil
}

// crowdDesc builds the i-th flash-crowd session: unique origin, unique
// administratively-scoped group (239.255/16) disjoint from the SAP
// dynamic block the daemons allocate from, so crowd sessions never
// clash with daemon-owned ones and perturb only cache occupancy.
func crowdDesc(i int) *session.Description {
	return &session.Description{
		ID:      uint64(10_000 + i),
		Version: 1,
		Origin:  netip.AddrFrom4([4]byte{10, 2, byte(i / 250), byte(1 + i%250)}),
		Name:    fmt.Sprintf("crowd-%d", i),
		Group:   netip.AddrFrom4([4]byte{239, 255, byte(i >> 8), byte(i)}),
		TTL:     15,
		Media:   []session.Media{{Type: "audio", Port: 5004, Proto: "RTP/AVP", Format: "0"}},
	}
}

// run executes the schedule against a fresh fleet and returns whether
// every invariant held. Setup failures return an error (exit code 2
// territory); invariant failures return (false, nil) after writing a
// deterministic FAIL verdict.
func (sc schedule) run(v *verdict, n int, seed uint64, sdrdBin, artifacts string) (bool, error) {
	v.logf("mcchaos schedule=%s n=%d seed=%d", sc.name, n, seed)
	rng := stats.NewRNG(seed)

	// The relay runs in this process; the schedule steers its links and
	// partitions by method call.
	r, err := relay.New(relay.Config{Seed: seed})
	if err != nil {
		return false, err
	}
	defer func() { _ = r.Close() }()

	// Reserve each slot's sockets, attach it to the relay, spawn it.
	f := newFleet(sdrdBin, artifacts, seed, n)
	defer f.stopAll()

	// Disk-fault phase: one daemon (never 0, the clash anchor; also never
	// the later freeze or kill victim, so the fault domains stay disjoint)
	// runs its journaled cache over an injected-fault disk for the whole
	// run. The spec's probabilities hit the write path only — recovery
	// stays clean, so the daemon always comes up — and its seed is mixed
	// from the master seed, keeping the verdict replayable. Skipped when
	// the fleet is too small to keep the roles distinct.
	diskIdx := -1
	if n >= 4 || (sc.freezeFor == 0 && n >= 3) {
		diskIdx = pickNot(rng, n, 0)
		f.ds[diskIdx].storageFaults = fmt.Sprintf("seed=%d,%s", mixSeed(seed, 255, 0), diskFaultProfile)
		v.logf("phase disk-faults daemon=%d spec=%s", diskIdx, diskFaultProfile)
	}
	var udpTargets []netip.AddrPort
	for _, d := range f.ds {
		if d.listen, err = reservePort("udp"); err != nil {
			return false, err
		}
		if d.http, err = reservePort("tcp"); err != nil {
			return false, err
		}
		if d.ingress, _, err = r.Attach(d.listen); err != nil {
			return false, err
		}
		udpTargets = append(udpTargets, d.listen)
	}
	for _, d := range f.ds {
		if err := f.spawn(d); err != nil {
			return false, err
		}
	}
	v.logf("phase spawn daemons=%d", n)
	for _, d := range f.ds {
		if err := f.waitReady(d, 10*time.Second); err != nil {
			return false, err
		}
	}

	// Record each daemon's own session before any chaos; these keys are
	// the "honest sessions" the convergence invariant tracks.
	ownKey := make([]string, n)
	ghosts := make(map[string]bool)
	for _, d := range f.ds {
		row, ok, err := waitOwnRow(f, d, ghosts, 5*time.Second)
		if err != nil || !ok {
			return false, fmt.Errorf("daemon %d: own session not visible: %v", d.idx, err)
		}
		ownKey[d.idx] = row.key
	}

	b := sc.baseline
	r.SetLink(-1, -1, b)
	v.logf("phase baseline loss=%g dup=%g corrupt=%g delay=%s:%s",
		b.Loss, b.Duplicate, b.Corrupt, b.DelayMin, b.DelayMax)

	inj, err := newInjector()
	if err != nil {
		return false, err
	}
	defer inj.close()

	// Clash injection: a forged third-party session squatting daemon 0's
	// group forces the clash machinery to respond — defend (phase 1) or
	// move (phase 2); either proves the protocol ran.
	row0, ok, err := f.ownRow(f.ds[0], ghosts)
	if err != nil || !ok {
		return false, fmt.Errorf("daemon 0 own session lost: %v", err)
	}
	clashGroup, err := netip.ParseAddr(row0.group)
	if err != nil {
		return false, fmt.Errorf("daemon 0 group %q: %w", row0.group, err)
	}
	clasher := &session.Description{
		ID: 77, Version: 1,
		Origin: netip.MustParseAddr("10.99.0.1"),
		Name:   "clasher",
		Group:  clashGroup,
		TTL:    15,
		Media:  []session.Media{{Type: "audio", Port: 5004, Proto: "RTP/AVP", Format: "0"}},
	}
	if err := inj.announce(clasher, udpTargets, 3); err != nil {
		return false, err
	}
	v.logf("phase clash-inject target=0 copies=3")

	// Flash crowd: waves of unknown sessions blow the 64-session budget.
	// Wave 1 fills the cache; the scrape between waves recomputes the
	// degradation tier, so wave 2+ arrivals meet level-2 admission
	// sampling and the shed counters move.
	v.logf("phase flash-crowd sessions=%d waves=%d", sc.crowdSessions, sc.crowdWaves)
	perWave := (sc.crowdSessions + sc.crowdWaves - 1) / sc.crowdWaves
	peaks := make([]float64, n)
	next := 0
	for w := 0; w < sc.crowdWaves && next < sc.crowdSessions; w++ {
		if w > 0 {
			time.Sleep(sc.waveGap)
		}
		for i := 0; i < perWave && next < sc.crowdSessions; i++ {
			if err := inj.announce(crowdDesc(next), udpTargets, 1); err != nil {
				return false, err
			}
			next++
		}
		scrapePeaks(f, peaks)
	}
	pollPeaks(f, peaks, 3*time.Second)
	degradeOK := true
	for i, p := range peaks {
		if p < 2 {
			degradeOK = false
			log.Printf("daemon %d: degradation peaked at %g, want 2", i, p)
		}
	}
	for _, d := range f.ds {
		m, err := f.metrics(d)
		if err != nil || m["dir_degraded_learns_shed_total"] < 1 {
			degradeOK = false
			log.Printf("daemon %d: no level-2 admission sheds (err=%v)", d.idx, err)
		}
	}
	v.invariant("degradation", degradeOK)

	// Optional freeze: SIGSTOP a bystander through the burst's tail,
	// then SIGCONT; it must rejoin without help.
	var frozen *daemon
	if sc.freezeFor > 0 {
		fi := pickNot(rng, n, 0)
		for fi == diskIdx {
			fi = pickNot(rng, n, 0)
		}
		frozen = f.ds[fi]
		v.logf("phase freeze daemon=%d signal=SIGSTOP", frozen.idx)
		if err := frozen.signal(syscall.SIGSTOP); err != nil {
			return false, err
		}
	}

	// Kill the victim (never daemon 0 — it anchors the clash check, never
	// the frozen bystander, and never the disk-fault daemon — its cache
	// may legitimately be stale, which would fog the crash-recovery
	// invariant) without ceremony, then partition the survivors while it
	// is down.
	victimIdx := pickNot(rng, n, 0)
	for victimIdx == diskIdx || (frozen != nil && victimIdx == frozen.idx) {
		victimIdx = pickNot(rng, n, 0)
	}
	victim := f.ds[victimIdx]
	ghosts[ownKey[victimIdx]] = true
	v.logf("phase kill victim=%d signal=SIGKILL", victimIdx)
	if err := victim.signal(syscall.SIGKILL); err != nil {
		return false, err
	}
	if err := victim.waitExit(5 * time.Second); err != nil {
		return false, err
	}

	groups := splitGroups(rng, n)
	v.logf("phase partition groups=%s", formatGroups(groups))
	r.Partition(groups...)
	partitionOK := r.SeveredLinks() > 0
	v.invariant("partition-active", partitionOK)

	if frozen != nil {
		time.Sleep(sc.freezeFor)
		v.logf("phase thaw daemon=%d signal=SIGCONT", frozen.idx)
		if err := frozen.signal(syscall.SIGCONT); err != nil {
			return false, err
		}
	} else {
		time.Sleep(2 * time.Second)
	}

	// Restart the victim mid-partition from its checkpoint cache. The
	// new incarnation's mixed seed allocates a fresh group, so it does
	// not mirror-clash with its own ghost in survivor caches.
	victim.incarnation++
	v.logf("phase restart victim=%d incarnation=%d", victimIdx, victim.incarnation)
	if err := f.spawn(victim); err != nil {
		return false, err
	}
	if err := f.waitReady(victim, 10*time.Second); err != nil {
		return false, err
	}
	m, err := f.metrics(victim)
	recoveryOK := err == nil && m["dir_cache_sessions"] > 0
	if !recoveryOK {
		log.Printf("victim %d: cache restore empty (cache_sessions=%g err=%v)",
			victimIdx, m["dir_cache_sessions"], err)
	}
	v.invariant("crash-recovery", recoveryOK)
	row, ok, err := waitOwnRow(f, victim, ghosts, 5*time.Second)
	if err != nil || !ok {
		return false, fmt.Errorf("victim %d: new own session not visible: %v", victimIdx, err)
	}
	ownKey[victimIdx] = row.key

	time.Sleep(sc.partitionHold)
	r.Heal()
	v.logf("phase heal")

	// Post-heal convergence: every live daemon must list every honest
	// session (ghosts of dead incarnations tolerated), and the owners'
	// groups must have ended up pairwise distinct.
	converged := pollConverged(f, ownKey, sc.convergeWait)
	v.invariant("converged", converged)

	distinct := true
	seenGroup := make(map[string]int)
	for _, d := range f.ds {
		r, ok, err := f.ownRow(d, ghosts)
		if err != nil || !ok {
			distinct = false
			log.Printf("daemon %d: own row missing for distinctness check (err=%v)", d.idx, err)
			continue
		}
		if prev, dup := seenGroup[r.group]; dup {
			distinct = false
			log.Printf("daemons %d and %d share group %s", prev, d.idx, r.group)
		}
		seenGroup[r.group] = d.idx
	}
	v.invariant("clash-distinct", distinct)

	m0, err := f.metrics(f.ds[0])
	clashOK := err == nil &&
		m0["dir_clash_defenses_own_total"]+m0["dir_clash_moves_total"] >= 1
	if !clashOK {
		log.Printf("daemon 0: no clash response (defenses=%g moves=%g err=%v)",
			m0["dir_clash_defenses_own_total"], m0["dir_clash_moves_total"], err)
	}
	v.invariant("clash-response", clashOK)

	// The crowd went quiet long ago and -stale-after is 4s, so the
	// degradation tier must have decayed back to normal everywhere.
	decayOK := true
	healthOK := true
	for _, d := range f.ds {
		m, err := f.metrics(d)
		if err != nil {
			decayOK, healthOK = false, false
			log.Printf("daemon %d: final scrape: %v", d.idx, err)
			continue
		}
		if lvl := m["shed_degradation_level"]; lvl != 0 {
			decayOK = false
			log.Printf("daemon %d: degradation level %g at end, want 0", d.idx, lvl)
		}
		if body, code, err := f.get(d, "/healthz"); err != nil || code != http.StatusOK || strings.TrimSpace(body) != "ok" {
			healthOK = false
			log.Printf("daemon %d: /healthz %d %q err=%v", d.idx, code, body, err)
		}
		// The disk-fault daemon may legitimately report 503
		// storage-degraded on /readyz after persistent checkpoint
		// failures; it must stay alive, not ready.
		if d.idx != diskIdx {
			if _, code, err := f.get(d, "/readyz"); err != nil || code != http.StatusOK {
				healthOK = false
				log.Printf("daemon %d: /readyz %d err=%v", d.idx, code, err)
			}
		}
	}
	v.invariant("degradation-decay", decayOK)
	v.invariant("health", healthOK)

	// The disk-fault daemon must have actually hit injected failures
	// (checkpoint errors counted), kept serving the protocol (it already
	// passed the converged and healthz checks above), and quarantined
	// nothing — injected write faults tear files, they do not corrupt
	// checksummed prefixes.
	if diskIdx >= 0 {
		md, err := f.metrics(f.ds[diskIdx])
		storageOK := err == nil &&
			md["cache_checkpoint_errors_total"]+md["cache_journal_append_errors_total"] >= 1 &&
			md["cache_recovery_corrupt_total"] == 0
		if !storageOK {
			log.Printf("daemon %d: disk-fault outcome (checkpoint-errors=%g append-errors=%g corrupt=%g err=%v)",
				diskIdx, md["cache_checkpoint_errors_total"], md["cache_journal_append_errors_total"],
				md["cache_recovery_corrupt_total"], err)
		}
		v.invariant("storage-faults", storageOK)
	}

	s := r.Stats()
	log.Printf("relay: forwarded=%d dropped=%d duplicated=%d corrupted=%d delayed=%d partition_drops=%d",
		s.Forwarded, s.Dropped, s.Duplicated, s.Corrupted, s.Delayed, s.PartitionDrops)
	return v.allOK(), nil
}

// pickNot draws a daemon index uniformly from [0, n) excluding `not`.
func pickNot(rng *stats.RNG, n, not int) int {
	idx := rng.IntN(n - 1)
	if idx >= not {
		idx++
	}
	return idx
}

// splitGroups permutes the indices with the seeded RNG and halves them.
func splitGroups(rng *stats.RNG, n int) [][]int {
	perm := rng.Perm(n)
	half := (n + 1) / 2
	a, b := append([]int(nil), perm[:half]...), append([]int(nil), perm[half:]...)
	sortInts(a)
	sortInts(b)
	return [][]int{a, b}
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// formatGroups renders groups for the verdict log, e.g. "0,2|1,3".
func formatGroups(groups [][]int) string {
	var parts []string
	for _, g := range groups {
		var toks []string
		for _, idx := range g {
			toks = append(toks, fmt.Sprintf("%d", idx))
		}
		parts = append(parts, strings.Join(toks, ","))
	}
	return strings.Join(parts, "|")
}

// waitOwnRow polls until the daemon's own session appears in its table.
func waitOwnRow(f *fleet, d *daemon, ghosts map[string]bool, timeout time.Duration) (sessRow, bool, error) {
	deadline := time.Now().Add(timeout)
	for {
		row, ok, err := f.ownRow(d, ghosts)
		if ok {
			return row, true, nil
		}
		if time.Now().After(deadline) {
			return sessRow{}, false, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// scrapePeaks samples every daemon's degradation gauge once, folding it
// into the running per-daemon peak. The scrape itself recomputes the
// tier daemon-side, which is exactly what a monitoring stack would do.
func scrapePeaks(f *fleet, peaks []float64) {
	for i, d := range f.ds {
		m, err := f.metrics(d)
		if err != nil {
			continue
		}
		if lvl := m["shed_degradation_level"]; lvl > peaks[i] {
			peaks[i] = lvl
		}
	}
}

// pollPeaks keeps sampling peaks for the window.
func pollPeaks(f *fleet, peaks []float64, window time.Duration) {
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		scrapePeaks(f, peaks)
		done := true
		for _, p := range peaks {
			if p < 2 {
				done = false
			}
		}
		if done {
			return
		}
		time.Sleep(150 * time.Millisecond)
	}
}

// pollConverged waits until every daemon's session table contains every
// honest session key.
func pollConverged(f *fleet, ownKey []string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if convergedOnce(f, ownKey) {
			return true
		}
		if time.Now().After(deadline) {
			// One last diagnostic pass so the log says who is missing what.
			for _, d := range f.ds {
				rows, err := f.sessions(d)
				if err != nil {
					log.Printf("daemon %d: scrape: %v", d.idx, err)
					continue
				}
				have := make(map[string]bool, len(rows))
				for _, r := range rows {
					have[r.key] = true
				}
				for k, key := range ownKey {
					if !have[key] {
						log.Printf("daemon %d: missing honest session %s (daemon %d)", d.idx, key, k)
					}
				}
			}
			return false
		}
		time.Sleep(500 * time.Millisecond)
	}
}

func convergedOnce(f *fleet, ownKey []string) bool {
	for _, d := range f.ds {
		rows, err := f.sessions(d)
		if err != nil {
			return false
		}
		have := make(map[string]bool, len(rows))
		for _, r := range rows {
			have[r.key] = true
		}
		for _, key := range ownKey {
			if !have[key] {
				return false
			}
		}
	}
	return true
}
