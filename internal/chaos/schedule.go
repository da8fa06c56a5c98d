package chaos

import (
	"fmt"
	"io"
	"net/netip"
	"slices"
	"strconv"
	"strings"
	"time"

	"sessiondir/internal/fault"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/stats"
)

// A Schedule is the scripted chaos scenario cmd/mcchaos runs against real
// sdrd daemons and Harness runs in process: own sessions, a forged clash,
// flash-crowd waves against the session budget, an optional freeze, a
// crash and a restart from the store under a partition, heal, converge —
// and, after each phase, the invariants the paper's soft-state protocol
// promises (Run lists them). Every choice it makes is drawn from the
// master seed in a fixed order, and every verdict line is a function of
// those draws and the invariant outcomes only — never of ports, PIDs,
// timings or metric values — so a seed gives one verdict, whichever
// Backend runs it.
type Schedule struct {
	Name          string
	CrowdSessions int           // flash-crowd announcements injected
	CrowdWaves    int           // injection waves (later waves hit level-2 sampling)
	WaveGap       time.Duration // pause between waves
	FreezeFor     time.Duration // freeze one agent this long (0 = skip)
	PartitionHold time.Duration // how long the partition stays up after the restart
	ConvergeWait  time.Duration // post-heal convergence deadline
	Baseline      fault.Profile
}

// ScheduleNamed returns the quick schedule, the CI tier bounded around a
// minute of wall time, or the extended one, the nightly tier: a bigger
// crowd, a freeze, a longer partition, rougher links.
func ScheduleNamed(name string) (Schedule, bool) {
	switch name {
	case "quick":
		return Schedule{
			Name:          name,
			CrowdSessions: 150,
			CrowdWaves:    2,
			WaveGap:       1500 * time.Millisecond,
			PartitionHold: 8 * time.Second,
			ConvergeWait:  25 * time.Second,
			Baseline: fault.Profile{
				Loss: 0.05, Duplicate: 0.02, Corrupt: 0.01,
				DelayMin: time.Millisecond, DelayMax: 10 * time.Millisecond,
			},
		}, true
	case "extended":
		return Schedule{
			Name:          name,
			CrowdSessions: 400,
			CrowdWaves:    3,
			WaveGap:       1500 * time.Millisecond,
			FreezeFor:     5 * time.Second,
			PartitionHold: 15 * time.Second,
			ConvergeWait:  45 * time.Second,
			Baseline: fault.Profile{
				Loss: 0.10, Duplicate: 0.05, Corrupt: 0.02,
				DelayMin: time.Millisecond, DelayMax: 25 * time.Millisecond,
			},
		}, true
	}
	return Schedule{}, false
}

// The settings every agent of a schedule runs with — sdrd's -ttl,
// -max-sessions, -stale-after, -announce-initial and -checkpoint in
// cmd/mcchaos, the same Config fields and Checkpointer in process.
const (
	AgentTTL             = 15
	AgentMaxSessions     = 64
	AgentStaleAfter      = 4 * time.Second
	AgentAnnounceInitial = 2 * time.Second
	AgentCheckpoint      = 500 * time.Millisecond
)

// diskFaultProfile is the storage fault spec of the disk-fault agent:
// write-path probabilities high enough that checkpoint compactions and
// journal appends fail repeatedly over a run, while the read and metadata
// paths stay clean so startup recovery always succeeds.
const diskFaultProfile = "write=0.08,short=0.05,nospace=0.04,sync=0.2"

// A Row is one session an agent lists: its key, its group, and whether
// the agent announces it itself.
type Row struct {
	Key   string
	Group netip.Addr
	Own   bool
}

// A Backend runs a Schedule's agents. Agents are numbered 0..n-1 and
// restarts keep the number. Harness is the in-process backend, on virtual
// time; cmd/mcchaos's is the process one, on sdrd daemons behind the UDP
// fault relay and on the wall clock.
type Backend interface {
	// Spawn starts the agents and returns once each is ready and
	// announcing its own session. Agent diskAgent (none if negative) keeps
	// its journaled cache on a disk faulted per the storage fault spec
	// diskFaults (the syntax of sdrd's -storage-faults).
	Spawn(diskAgent int, diskFaults string) error
	// Sessions lists agent i's own and cached sessions.
	Sessions(i int) ([]Row, error)
	// Metrics reads agent i's scalar metrics by their /metrics names.
	Metrics(i int) (map[string]float64, error)
	// Health reports whether agent i is live, and whether it is ready.
	Health(i int) (live, ready bool)
	// SetFaults installs profile on every link.
	SetFaults(profile fault.Profile)
	// Partition splits the agents into groups, cutting off any agent in
	// none, and returns how many directed links it severed.
	Partition(groups ...[]int) int
	// Heal removes the partition.
	Heal()
	// Inject delivers copies of the SAP datagram pkt to every agent, past
	// the faults and the partition.
	Inject(pkt []byte, copies int) error
	// Kill crashes agent i without ceremony.
	Kill(i int) error
	// Restart starts killed agent i again from its store, with a new seed,
	// and returns once it is ready and announcing its own session.
	Restart(i int) error
	// Freeze stops agent i: it neither steps nor receives until Thaw.
	Freeze(i int) error
	// Thaw resumes frozen agent i.
	Thaw(i int) error
	// Run does each event at its At, measured from the call, and returns
	// once d has passed. Events fire in At order, ties in slice order; one
	// due after d is dropped.
	Run(events []Event, d time.Duration)
}

// Event is one scripted step of a scenario: Do runs at At, measured from
// the Run call the event was passed to.
type Event struct {
	At time.Duration
	Do func(b Backend)
}

// MixSeed derives one agent incarnation's seed from the master seed.
// Mixing the incarnation in matters: a restarted agent with its dead
// predecessor's seed would re-allocate the predecessor's group and
// mirror-clash with its own ghost in every survivor's cache.
func MixSeed(master uint64, idx, incarnation int) uint64 {
	z := master ^ uint64(idx+1)*0x9e3779b97f4a7c15 ^ uint64(incarnation+1)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		return 1 // zero asks sdrd to derive its own seed; a replay needs it pinned
	}
	return z
}

// verdict is the seed-replayable run record: phases, invariant outcomes,
// final verdict.
type verdict struct {
	w      io.Writer
	failed bool
}

// logf writes one verdict line. Arguments must be deterministic: seed
// draws, fixed schedule parameters and invariant outcomes only.
func (v *verdict) logf(format string, args ...any) {
	fmt.Fprintf(v.w, format+"\n", args...)
}

// invariant records one invariant outcome as a verdict line.
func (v *verdict) invariant(name string, ok bool) {
	state := "ok"
	if !ok {
		state, v.failed = "FAIL", true
	}
	v.logf("invariant %s %s", name, state)
}

// Run executes the schedule on b's n agents for seed, writes the verdict
// to w and reports whether every invariant held. Diagnostics with
// run-specific detail (counts, keys, errors) go to logf instead. An error
// means the run could not be carried out, and w then ends without a
// verdict line. The invariants, each evaluated here and nowhere else:
//
//   - degradation: the crowd drives every agent to overload tier 2 and
//     level-2 admission sampling sheds some of it;
//   - partition-active: the partition severs links;
//   - crash-recovery: the killed agent restarts from its store with
//     listened state;
//   - converged: after the heal every agent lists every honest session
//     (ghosts of killed incarnations tolerated);
//   - clash-distinct: the agents' own groups end pairwise distinct;
//   - clash-response: agent 0 defended or moved the forged clash;
//   - degradation-decay: the tier is back to 0 once the crowd is stale;
//   - health: every agent is live, and ready but for the disk-fault one;
//   - storage-faults: the disk-fault agent counted checkpoint or append
//     errors and quarantined nothing — torn writes are not corruption.
func (sc Schedule) Run(b Backend, n int, seed uint64, w io.Writer, logf func(format string, args ...any)) (bool, error) {
	v := &verdict{w: w}
	if err := sc.run(b, v, n, seed, logf); err != nil {
		return false, err
	}
	if v.failed {
		v.logf("verdict FAIL")
		return false, nil
	}
	v.logf("verdict PASS")
	return true, nil
}

// Poll cadences of the run's waits.
const (
	ownRowPoll   = 100 * time.Millisecond
	peakPoll     = 150 * time.Millisecond
	convergePoll = 500 * time.Millisecond
)

func (sc Schedule) run(b Backend, v *verdict, n int, seed uint64, logf func(string, ...any)) error {
	v.logf("mcchaos schedule=%s n=%d seed=%d", sc.Name, n, seed)
	rng := stats.NewRNG(seed)

	// Disk-fault phase: one agent (never 0, the clash anchor; also never
	// the later freeze or kill victim, so the fault domains stay disjoint)
	// runs its journaled cache over an injected-fault disk for the whole
	// run. The faults hit the write path only — recovery stays clean, so
	// the agent always comes up — and their seed is mixed from the master
	// seed. Skipped when the fleet is too small to keep the roles
	// distinct.
	diskIdx, diskFaults := -1, ""
	if n >= 4 || (sc.FreezeFor == 0 && n >= 3) {
		diskIdx = pickNot(rng, n, 0)
		diskFaults = fmt.Sprintf("seed=%d,%s", MixSeed(seed, 255, 0), diskFaultProfile)
		v.logf("phase disk-faults daemon=%d spec=%s", diskIdx, diskFaultProfile)
	}
	if err := b.Spawn(diskIdx, diskFaults); err != nil {
		return err
	}
	v.logf("phase spawn daemons=%d", n)

	// Each agent's own session before any chaos: these keys are the
	// "honest sessions" the convergence invariant tracks.
	ownKey := make([]string, n)
	ghosts := make(map[string]bool)
	var row0 Row
	for i := range n {
		row, err := waitOwnRow(b, i, ghosts)
		if err != nil {
			return err
		}
		ownKey[i] = row.Key
		if i == 0 {
			row0 = row
		}
	}

	bl := sc.Baseline
	b.SetFaults(bl)
	v.logf("phase baseline loss=%g dup=%g corrupt=%g delay=%s:%s",
		bl.Loss, bl.Duplicate, bl.Corrupt, bl.DelayMin, bl.DelayMax)

	// Clash injection: a forged third-party session squatting agent 0's
	// group forces the clash machinery to respond — defend (phase 1) or
	// move (phase 2); either proves the protocol ran.
	err := inject(b, &session.Description{
		ID: 77, Version: 1,
		Origin: netip.MustParseAddr("10.99.0.1"),
		Name:   "clasher",
		Group:  row0.Group,
		TTL:    AgentTTL,
		Media:  []session.Media{{Type: "audio", Port: 5004, Proto: "RTP/AVP", Format: "0"}},
	}, 3)
	if err != nil {
		return err
	}
	v.logf("phase clash-inject target=0 copies=3")

	// Flash crowd: waves of unknown sessions blow the 64-session budget.
	// Wave 1 fills the cache. A scrape computes the tier without storing
	// it; the packet path acts on the tier the last timer Step stored, and
	// the agents step once a second, inside the wave gap. So wave 2+
	// arrivals meet level-2 admission sampling and the shed counters move.
	v.logf("phase flash-crowd sessions=%d waves=%d", sc.CrowdSessions, sc.CrowdWaves)
	perWave := (sc.CrowdSessions + sc.CrowdWaves - 1) / sc.CrowdWaves
	peaks := make([]float64, n)
	var waves []Event
	for w := range sc.CrowdWaves {
		first := w * perWave
		last := min(first+perWave, sc.CrowdSessions)
		waves = append(waves, Event{At: time.Duration(w) * sc.WaveGap, Do: func(b Backend) {
			for i := first; i < last && err == nil; i++ {
				err = inject(b, crowdDesc(i), 1)
			}
			scrapePeaks(b, peaks)
		}})
	}
	b.Run(waves, time.Duration(sc.CrowdWaves-1)*sc.WaveGap)
	if err != nil {
		return err
	}
	poll(b, peakPoll, 3*time.Second, func() bool {
		scrapePeaks(b, peaks)
		return slices.Min(peaks) >= 2
	})
	degradeOK := true
	for i, p := range peaks {
		if p < 2 {
			degradeOK = false
			logf("daemon %d: degradation peaked at %g, want 2", i, p)
		}
	}
	for i := range n {
		m, err := b.Metrics(i)
		if err != nil || m["dir_degraded_learns_shed_total"] < 1 {
			degradeOK = false
			logf("daemon %d: no level-2 admission sheds (err=%v)", i, err)
		}
	}
	v.invariant("degradation", degradeOK)

	// Optional freeze: stop a bystander through the burst's tail; it must
	// rejoin without help once thawed.
	frozen := -1
	if sc.FreezeFor > 0 {
		frozen = pickNot(rng, n, 0)
		for frozen == diskIdx {
			frozen = pickNot(rng, n, 0)
		}
		v.logf("phase freeze daemon=%d signal=SIGSTOP", frozen)
		if err := b.Freeze(frozen); err != nil {
			return err
		}
	}

	// Kill the victim (never agent 0 — it anchors the clash check, never
	// the frozen bystander, and never the disk-fault agent — its cache may
	// legitimately be stale, which would fog the crash-recovery invariant)
	// without ceremony, then partition the survivors while it is down.
	victim := pickNot(rng, n, 0)
	for victim == diskIdx || victim == frozen {
		victim = pickNot(rng, n, 0)
	}
	ghosts[ownKey[victim]] = true
	v.logf("phase kill victim=%d signal=SIGKILL", victim)
	if err := b.Kill(victim); err != nil {
		return err
	}

	groups := splitGroups(rng, n)
	v.logf("phase partition groups=%s", formatGroups(groups))
	v.invariant("partition-active", b.Partition(groups...) > 0)

	if frozen >= 0 {
		b.Run(nil, sc.FreezeFor)
		v.logf("phase thaw daemon=%d signal=SIGCONT", frozen)
		if err := b.Thaw(frozen); err != nil {
			return err
		}
	} else {
		b.Run(nil, 2*time.Second)
	}

	// Restart the victim mid-partition from its store. The new
	// incarnation's seed allocates a fresh group, so it does not
	// mirror-clash with its own ghost in survivor caches.
	v.logf("phase restart victim=%d incarnation=1", victim)
	if err := b.Restart(victim); err != nil {
		return err
	}
	m, err := b.Metrics(victim)
	recoveryOK := err == nil && m["dir_cache_sessions"] > 0
	if !recoveryOK {
		logf("victim %d: cache restore empty (cache_sessions=%g err=%v)", victim, m["dir_cache_sessions"], err)
	}
	v.invariant("crash-recovery", recoveryOK)
	row, err := waitOwnRow(b, victim, ghosts)
	if err != nil {
		return err
	}
	ownKey[victim] = row.Key

	b.Run(nil, sc.PartitionHold)
	b.Heal()
	v.logf("phase heal")

	// Post-heal convergence: every agent must list every honest session,
	// and the owners' groups must have ended up pairwise distinct.
	converged := poll(b, convergePoll, sc.ConvergeWait, func() bool { return missing(b, ownKey, nil) == 0 })
	if !converged {
		missing(b, ownKey, logf) // say who is missing what
	}
	v.invariant("converged", converged)

	distinct := true
	owner := make(map[netip.Addr]int)
	for i := range n {
		r, ok, err := ownRow(b, i, ghosts)
		if err != nil || !ok {
			distinct = false
			logf("daemon %d: own row missing for distinctness check (err=%v)", i, err)
			continue
		}
		if prev, dup := owner[r.Group]; dup {
			distinct = false
			logf("daemons %d and %d share group %s", prev, i, r.Group)
		}
		owner[r.Group] = i
	}
	v.invariant("clash-distinct", distinct)

	m0, err := b.Metrics(0)
	clashOK := err == nil && m0["dir_clash_defenses_own_total"]+m0["dir_clash_moves_total"] >= 1
	if !clashOK {
		logf("daemon 0: no clash response (defenses=%g moves=%g err=%v)",
			m0["dir_clash_defenses_own_total"], m0["dir_clash_moves_total"], err)
	}
	v.invariant("clash-response", clashOK)

	// The crowd went quiet long ago and is stale after 4 s, so the
	// degradation tier must have decayed back to normal everywhere.
	decayOK, healthOK := true, true
	for i := range n {
		m, err := b.Metrics(i)
		if err != nil {
			decayOK = false
			logf("daemon %d: final scrape: %v", i, err)
		} else if lvl := m["shed_degradation_level"]; lvl != 0 {
			decayOK = false
			logf("daemon %d: degradation level %g at end, want 0", i, lvl)
		}
		// The disk-fault agent may legitimately be unready (storage
		// degraded) after persistent checkpoint failures; it must stay
		// live.
		if live, ready := b.Health(i); !live || !ready && i != diskIdx {
			healthOK = false
			logf("daemon %d: live=%v ready=%v", i, live, ready)
		}
	}
	v.invariant("degradation-decay", decayOK)
	v.invariant("health", healthOK)

	// The disk-fault agent must have hit injected failures (errors
	// counted), kept serving the protocol (it passed the converged and
	// health checks above), and quarantined nothing.
	if diskIdx >= 0 {
		md, err := b.Metrics(diskIdx)
		storageOK := err == nil &&
			md["cache_checkpoint_errors_total"]+md["cache_journal_append_errors_total"] >= 1 &&
			md["cache_recovery_corrupt_total"] == 0
		if !storageOK {
			logf("daemon %d: disk-fault outcome (checkpoint-errors=%g append-errors=%g corrupt=%g err=%v)",
				diskIdx, md["cache_checkpoint_errors_total"], md["cache_journal_append_errors_total"],
				md["cache_recovery_corrupt_total"], err)
		}
		v.invariant("storage-faults", storageOK)
	}
	return nil
}

// pickNot draws an agent index uniformly from [0, n) excluding not.
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
	a, b := slices.Clone(perm[:half]), slices.Clone(perm[half:])
	slices.Sort(a)
	slices.Sort(b)
	return [][]int{a, b}
}

// formatGroups renders groups for the verdict log, e.g. "0,2|1,3".
func formatGroups(groups [][]int) string {
	parts := make([]string, len(groups))
	for gi, g := range groups {
		toks := make([]string, len(g))
		for k, idx := range g {
			toks[k] = strconv.Itoa(idx)
		}
		parts[gi] = strings.Join(toks, ",")
	}
	return strings.Join(parts, "|")
}

// crowdDesc builds the i-th flash-crowd session: unique origin, unique
// administratively scoped group (239.255/16) disjoint from the SAP
// dynamic block the agents allocate from, so crowd sessions never clash
// with agent-owned ones and perturb only cache occupancy.
func crowdDesc(i int) *session.Description {
	return &session.Description{
		ID:      uint64(10_000 + i),
		Version: 1,
		Origin:  netip.AddrFrom4([4]byte{10, 2, byte(i / 250), byte(1 + i%250)}),
		Name:    fmt.Sprintf("crowd-%d", i),
		Group:   netip.AddrFrom4([4]byte{239, 255, byte(i >> 8), byte(i)}),
		TTL:     AgentTTL,
		Media:   []session.Media{{Type: "audio", Port: 5004, Proto: "RTP/AVP", Format: "0"}},
	}
}

// inject has b deliver copies of desc's SAP announcement to every agent.
func inject(b Backend, desc *session.Description, copies int) error {
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
	return b.Inject(buf, copies)
}

// poll checks done every period until it holds or timeout has passed on
// the backend's clock, and reports whether it held.
func poll(b Backend, every, timeout time.Duration, done func() bool) bool {
	for waited := time.Duration(0); ; waited += every {
		if done() {
			return true
		}
		if waited >= timeout {
			return false
		}
		b.Run(nil, every)
	}
}

// ownRow finds agent i's own announcement among its sessions, skipping
// known ghosts of killed incarnations.
func ownRow(b Backend, i int, ghosts map[string]bool) (Row, bool, error) {
	rows, err := b.Sessions(i)
	if err != nil {
		return Row{}, false, err
	}
	for _, r := range rows {
		if r.Own && !ghosts[r.Key] {
			return r, true, nil
		}
	}
	return Row{}, false, nil
}

// waitOwnRow waits up to 5 s for agent i's own session to be listed.
func waitOwnRow(b Backend, i int, ghosts map[string]bool) (Row, error) {
	var row Row
	var ok bool
	var err error
	poll(b, ownRowPoll, 5*time.Second, func() bool {
		row, ok, err = ownRow(b, i, ghosts)
		return ok
	})
	if !ok {
		return Row{}, fmt.Errorf("daemon %d: own session not visible: %v", i, err)
	}
	return row, nil
}

// scrapePeaks folds every agent's degradation gauge into its running
// peak.
func scrapePeaks(b Backend, peaks []float64) {
	for i := range peaks {
		if m, err := b.Metrics(i); err == nil {
			peaks[i] = max(peaks[i], m["shed_degradation_level"])
		}
	}
}

// missing counts, over every agent, the honest sessions it does not list;
// with logf it says which. An agent that cannot be listed misses them
// all.
func missing(b Backend, ownKey []string, logf func(string, ...any)) int {
	gaps := 0
	for i := range ownKey {
		rows, err := b.Sessions(i)
		if err != nil && logf != nil {
			logf("daemon %d: scrape: %v", i, err)
		}
		have := make(map[string]bool, len(rows))
		for _, r := range rows {
			have[r.Key] = true
		}
		for k, key := range ownKey {
			if !have[key] {
				gaps++
				if logf != nil && err == nil {
					logf("daemon %d: missing honest session %s (daemon %d)", i, key, k)
				}
			}
		}
	}
	return gaps
}
