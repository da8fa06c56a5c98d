package storage

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"
)

// The keystone robustness test: enumerate a simulated crash after
// EVERY VFS operation a scripted save/append/compact workload performs,
// under every crash mode MemFS models, then recover and assert the
// result is always a valid pre- or post-state of the logical operation
// that was in flight — never a torn state, never losing an acknowledged
// record, never classifying crash residue as corruption.
//
// The model application is a tiny key-value map: "set" and "del" are
// journal deltas, "compact" folds the live map into a snapshot. That is
// exactly the shape CacheStore gives the session cache (learn/expire
// deltas plus periodic snapshot), with the session payload abstracted
// away.

// kvOp is one logical operation of the scripted workload.
type kvOp struct {
	kind string // "set", "del", "batch", "compact"
	k, v string
	kv2  [2]string // second pair for "batch"
}

// encodeKV frames one delta payload.
func encodeKV(set bool, k, v string) []byte {
	var b bytes.Buffer
	if set {
		b.WriteByte('S')
	} else {
		b.WriteByte('D')
	}
	b.WriteString(k)
	b.WriteByte(0)
	b.WriteString(v)
	return b.Bytes()
}

// decodeKV applies one payload to the model.
func decodeKV(m map[string]string, p []byte) error {
	if len(p) < 2 {
		return fmt.Errorf("short payload %q", p)
	}
	i := bytes.IndexByte(p[1:], 0)
	if i < 0 {
		return fmt.Errorf("unterminated key in %q", p)
	}
	k, v := string(p[1:1+i]), string(p[2+i:])
	switch p[0] {
	case 'S':
		m[k] = v
	case 'D':
		delete(m, k)
	default:
		return fmt.Errorf("unknown delta kind %q", p[0])
	}
	return nil
}

// records returns the journal payload sequence a logical op appends
// (nil for compact).
func (op kvOp) records() [][]byte {
	switch op.kind {
	case "set":
		return [][]byte{encodeKV(true, op.k, op.v)}
	case "del":
		return [][]byte{encodeKV(false, op.k, "")}
	case "batch":
		return [][]byte{encodeKV(true, op.k, op.v), encodeKV(true, op.kv2[0], op.kv2[1])}
	}
	return nil
}

func cloneKV(m map[string]string) map[string]string {
	c := make(map[string]string, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func kvString(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s;", k, m[k])
	}
	return b.String()
}

// compactKV folds the live model into a snapshot in sorted-key order.
func compactKV(s *Store, live map[string]string) error {
	return s.Compact(func(add func(head []byte, body string) error) error {
		keys := make([]string, 0, len(live))
		for k := range live {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := add(encodeKV(true, k, live[k]), ""); err != nil {
				return err
			}
		}
		return nil
	})
}

// quickScript is the CI-tier workload: every store code path (first
// compact, single appends, a batch append, deletes, re-compacts) in a
// couple hundred VFS ops.
func quickScript() []kvOp {
	return []kvOp{
		{kind: "compact"},
		{kind: "set", k: "alpha", v: "1"},
		{kind: "set", k: "beta", v: "2"},
		{kind: "batch", k: "gamma", v: "3", kv2: [2]string{"delta", "4"}},
		{kind: "compact"},
		{kind: "del", k: "alpha"},
		{kind: "set", k: "beta", v: "22"},
		{kind: "compact"},
		{kind: "set", k: "eps", v: "5"},
		{kind: "del", k: "gamma"},
		{kind: "compact"},
		{kind: "batch", k: "zeta", v: "6", kv2: [2]string{"eta", "7"}},
	}
}

// extendedScript is the nightly-tier workload: longer, more churn, so
// the crash sweep covers more (op, state) combinations.
func extendedScript() []kvOp {
	ops := []kvOp{{kind: "compact"}}
	for i := 0; i < 12; i++ {
		k1 := fmt.Sprintf("k%d", i%5)
		k2 := fmt.Sprintf("k%d", (i+2)%5)
		ops = append(ops,
			kvOp{kind: "set", k: k1, v: fmt.Sprintf("v%d", i)},
			kvOp{kind: "batch", k: k2, v: fmt.Sprintf("b%d", i), kv2: [2]string{k1 + "x", "y"}},
		)
		if i%3 == 1 {
			ops = append(ops, kvOp{kind: "del", k: k1})
		}
		if i%4 == 3 {
			ops = append(ops, kvOp{kind: "compact"})
		}
	}
	return append(ops, kvOp{kind: "compact"}, kvOp{kind: "del", k: "k0"})
}

// runScript executes ops against a store on fsys, tracking the live
// model (every attempted mutation) and the acked model (everything the
// store acknowledged as durable). It stops at the first store error and
// returns the in-flight logical op's allowed recovery states: the acked
// state plus each cumulative record prefix of the op that failed.
func runScript(fsys FS, ops []kvOp) (allowed []map[string]string) {
	live := map[string]string{}
	acked := map[string]string{}
	model := func() map[string]string { return cloneKV(acked) }

	s, _, err := Open(fsys, "cache", OpenOptions{Replay: func(p []byte) error {
		return decodeKV(live, p)
	}})
	if err != nil {
		// Crashed during recovery reads: nothing was written, the
		// pre-state (empty here) must survive.
		return []map[string]string{model()}
	}
	defer s.Close()

	for _, op := range ops {
		if op.kind == "compact" {
			// A compact folds the live model; its pre-state is acked,
			// its post-state is live.
			if err := compactKV(s, live); err != nil {
				return []map[string]string{cloneKV(acked), cloneKV(live)}
			}
			acked = cloneKV(live)
			continue
		}
		recs := op.records()
		for _, r := range recs {
			decodeKV(live, r) // the app mutates memory first, then journals
		}
		if _, err := s.Append(batch(recs...)); err != nil {
			// In-flight append: any durable prefix of the batch is a
			// valid recovery, including none of it.
			allowed = []map[string]string{model()}
			pfx := cloneKV(acked)
			for _, r := range recs {
				decodeKV(pfx, r)
				allowed = append(allowed, cloneKV(pfx))
			}
			return allowed
		}
		acked = cloneKV(live)
	}
	// Script completed without a crash: exactly the acked state.
	return []map[string]string{model()}
}

// recoverKV reopens the store on fsys and replays into a fresh model.
func recoverKV(t *testing.T, fsys FS) (map[string]string, Recovery) {
	t.Helper()
	m := map[string]string{}
	s, rec, err := Open(fsys, "cache", OpenOptions{Replay: func(p []byte) error {
		return decodeKV(m, p)
	}})
	if err != nil {
		t.Fatalf("recovery Open failed: %v (recovery %+v)", err, rec)
	}
	s.Close()
	return m, rec
}

func crashSweep(t *testing.T, ops []kvOp, seed uint64) {
	// Dry run: count the VFS ops the full script performs.
	dry := NewFaultFS(NewMemFS(), seed, FaultProfile{})
	final := runScript(dry, ops)
	total := dry.Ops()
	if total < 50 {
		t.Fatalf("script too small to be interesting: %d VFS ops", total)
	}
	if len(final) != 1 {
		t.Fatalf("dry run did not complete: %d allowed states", len(final))
	}
	t.Logf("enumerating %d crash points x %d modes (%d recoveries)",
		total, len(CrashModes), total*int64(len(CrashModes)))

	for k := int64(0); k <= total; k++ {
		for _, mode := range CrashModes {
			mem := NewMemFS()
			ffs := NewFaultFS(mem, seed, FaultProfile{})
			ffs.SetCrashAfter(k)
			allowed := runScript(ffs, ops)
			if k < total && !ffs.Crashed() {
				t.Fatalf("crash point %d never fired", k)
			}
			// Power loss, reboot, recover.
			mem.Crash(mode, seed^uint64(k*41+int64(mode)+1))
			got, rec := recoverKV(t, mem)
			if rec.Corrupt != 0 || len(rec.Quarantined) != 0 {
				t.Fatalf("crash point %d mode %v: crash residue classified as corruption: %+v",
					k, mode, rec)
			}
			ok := false
			for _, want := range allowed {
				if reflect.DeepEqual(got, want) {
					ok = true
					break
				}
			}
			if !ok {
				var wants []string
				for _, w := range allowed {
					wants = append(wants, kvString(w))
				}
				t.Fatalf("crash point %d mode %v: recovered %q, want one of %q (recovery %+v)",
					k, mode, kvString(got), wants, rec)
			}
		}
	}
}

// TestCrashPointEnumeration is the quick (CI) tier.
func TestCrashPointEnumeration(t *testing.T) {
	crashSweep(t, quickScript(), 17)
}

// TestCrashPointEnumerationExtended is the nightly tier: the longer
// script and several seeds (different torn-tail draws and crash
// residue). Gate: STORAGE_CHAOS_EXTENDED=1.
func TestCrashPointEnumerationExtended(t *testing.T) {
	if os.Getenv("STORAGE_CHAOS_EXTENDED") == "" {
		t.Skip("set STORAGE_CHAOS_EXTENDED=1 for the extended crash-point sweep")
	}
	for _, seed := range []uint64{3, 1009, 77777} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			crashSweep(t, extendedScript(), seed)
		})
	}
}

// TestFaultSoakAckedNeverLost drives the script under a continuously
// faulty disk (no crash points): after a clean reopen, the recovered
// state must be one the acknowledgement history permits. A failed
// operation may still have landed bytes (a short-written batch prefix,
// a snapshot whose directory sync failed), so the allowed set is the
// last acknowledged state plus the possible residues of operations that
// failed since — but never anything older than an acknowledgement and
// never a state no operation produced.
func TestFaultSoakAckedNeverLost(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		mem := NewMemFS()
		ffs := NewFaultFS(mem, seed, FaultProfile{
			WriteErr: 0.05, ShortWrite: 0.05, NoSpace: 0.03, SyncErr: 0.08, MetaErr: 0.02,
		})
		live := map[string]string{}
		s, _, err := Open(ffs, "cache", OpenOptions{Replay: func(p []byte) error {
			return decodeKV(live, p)
		}})
		if err != nil {
			continue // recovery reads hit a fault; nothing persisted, nothing to check
		}
		allowed := map[string]map[string]string{} // kvString -> state
		admit := func(m map[string]string) { allowed[kvString(m)] = cloneKV(m) }
		reset := func(m map[string]string) {
			allowed = map[string]map[string]string{}
			admit(m)
		}
		anyAck := false
		reset(map[string]string{}) // pre-first-compact: empty store
		for _, op := range extendedScript() {
			if op.kind == "compact" {
				if compactKV(s, live) == nil {
					reset(live)
					anyAck = true
				} else {
					// The snapshot may or may not have been installed.
					admit(live)
				}
				continue
			}
			recs := op.records()
			for _, r := range recs {
				decodeKV(live, r)
			}
			wasBroken := s.Broken()
			if _, err := s.Append(batch(recs...)); err == nil {
				reset(live)
				anyAck = true
			} else if !wasBroken {
				// First failure since health: complete record prefixes
				// of this batch may have reached the journal.
				for _, prior := range allowedSnapshot(allowed) {
					pfx := cloneKV(prior)
					for _, r := range recs {
						decodeKV(pfx, r)
						admit(pfx)
					}
				}
			}
		}
		s.Close()
		if !anyAck {
			continue // the disk never let a single operation through
		}
		got, rec := recoverKV(t, mem)
		if _, ok := allowed[kvString(got)]; !ok {
			var wants []string
			for w := range allowed {
				wants = append(wants, w)
			}
			sort.Strings(wants)
			t.Fatalf("seed %d: recovered %q, want one of %q (recovery %+v, fates %v)",
				seed, kvString(got), wants, rec, ffs.Fates())
		}
	}
}

// allowedSnapshot returns the current allowed states as a stable slice
// (the map is mutated while iterating otherwise).
func allowedSnapshot(allowed map[string]map[string]string) []map[string]string {
	keys := make([]string, 0, len(allowed))
	for k := range allowed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]map[string]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, allowed[k])
	}
	return out
}
