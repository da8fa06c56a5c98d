package chaos

import (
	"bytes"
	"strings"
	"testing"

	"sessiondir/internal/storage"
)

// runSchedule runs the named schedule in process on 4 agents — mcchaos's
// default fleet — and returns its verdict log.
func runSchedule(t *testing.T, b Backend, name string, seed uint64) (string, bool) {
	t.Helper()
	sc, ok := ScheduleNamed(name)
	if !ok {
		t.Fatalf("no schedule %q", name)
	}
	var verdict bytes.Buffer
	pass, err := sc.Run(b, 4, seed, &verdict, t.Logf)
	if err != nil {
		t.Fatalf("%s seed %d: %v\n%s", name, seed, err, verdict.String())
	}
	return verdict.String(), pass
}

func inProcess(t *testing.T, seed uint64) *Harness {
	t.Helper()
	h, err := InProcess(4, seed)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestChaosSchedules runs mcchaos's quick and extended schedules in process
// for seeds 1–20: every invariant must hold, and the run is a function of
// its seed.
func TestChaosSchedules(t *testing.T) {
	for _, name := range []string{"quick", "extended"} {
		for seed := uint64(1); seed <= 20; seed++ {
			verdict, pass := runSchedule(t, inProcess(t, seed), name, seed)
			if !pass {
				t.Errorf("%s seed %d failed:\n%s", name, seed, verdict)
			}
		}
	}
	first, _ := runSchedule(t, inProcess(t, 41), "quick", 41)
	if again, _ := runSchedule(t, inProcess(t, 41), "quick", 41); again != first {
		t.Fatalf("same-seed verdicts differ:\n%s---\n%s", first, again)
	}
}

// brokenRestart restarts its victim over an emptied store and never heals
// the partition.
type brokenRestart struct{ *Harness }

func (b brokenRestart) Restart(i int) error {
	b.agents[i].fs = storage.NewMemFS()
	return b.Harness.Restart(i)
}

func (brokenRestart) Heal() {}

// TestChaosScheduleInvariantsCanFail breaks the schedule twice — the
// victim restarts over an emptied store, and the partition never heals —
// and requires the invariants to say so.
func TestChaosScheduleInvariantsCanFail(t *testing.T) {
	verdict, pass := runSchedule(t, brokenRestart{inProcess(t, 41)}, "quick", 41)
	if pass {
		t.Fatalf("a broken schedule passed:\n%s", verdict)
	}
	rest := verdict
	for _, want := range []string{"invariant crash-recovery FAIL\n", "invariant converged FAIL\n", "verdict FAIL\n"} {
		i := strings.Index(rest, want)
		if i < 0 {
			t.Fatalf("verdict lacks %q after the lines before it:\n%s", want, verdict)
		}
		rest = rest[i+len(want):]
	}
}
