package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func baselineReport() benchReport {
	return benchReport{
		Figures: []figureTiming{{ID: "fig5", WallMs: 1000}, {ID: "fig12", WallMs: 400}},
		Micro: []microBenchResult{
			{Name: "AllocateAdaptive", NsPerOp: 2000, AllocsOp: 0, BytesOp: 0},
			{Name: "AllocateHybrid", NsPerOp: 3000, AllocsOp: 0, BytesOp: 0},
		},
	}
}

func TestCompareReportsWithinTolerance(t *testing.T) {
	oldR := baselineReport()
	newR := baselineReport()
	newR.Figures[0].WallMs = 1100 // +10%: inside the 25% band
	warnings, failures := compareReports(oldR, newR, "quick")
	if len(warnings) != 0 || len(failures) != 0 {
		t.Fatalf("clean run flagged: warnings=%v failures=%v", warnings, failures)
	}
}

func TestCompareReportsWarnsPastTolerance(t *testing.T) {
	oldR := baselineReport()
	newR := baselineReport()
	newR.Micro[0].NsPerOp = 3100 // +55%: warn, don't fail
	warnings, failures := compareReports(oldR, newR, "quick")
	if len(failures) != 0 {
		t.Fatalf("soft regression hard-failed: %v", failures)
	}
	if len(warnings) != 1 {
		t.Fatalf("warnings = %v, want exactly one", warnings)
	}
}

func TestCompareReportsFailsPastRatio(t *testing.T) {
	oldR := baselineReport()
	newR := baselineReport()
	newR.Figures[1].WallMs = 1000 // 2.5x: hard fail
	_, failures := compareReports(oldR, newR, "quick")
	if len(failures) != 1 {
		t.Fatalf("2.5x slowdown not failed: %v", failures)
	}
}

func TestCompareReportsWarnsOnAllocGrowth(t *testing.T) {
	oldR := baselineReport()
	newR := baselineReport()
	newR.Micro[1].AllocsOp = 3
	warnings, failures := compareReports(oldR, newR, "quick")
	if len(failures) != 0 {
		t.Fatalf("alloc growth hard-failed: %v", failures)
	}
	if len(warnings) != 1 {
		t.Fatalf("warnings = %v, want the allocs_per_op growth", warnings)
	}
}

// A row whose allocation count jitters between rounds warns only when the
// new run's fewest exceeds the baseline's most by more than either run's
// range; a row whose rounds agree warns on one more.
func TestCompareReportsReadsAllocRanges(t *testing.T) {
	for _, c := range []struct {
		name     string
		old, new []int64
		warn     bool
	}{
		{"jitter within the baseline's range", []int64{45147, 45149, 45148}, []int64{45148, 45150, 45149}, false},
		{"jitter past the baseline's, by its range", []int64{45147, 45149, 45148}, []int64{45150, 45150, 45150}, false},
		{"jitter past the baseline's, by more", []int64{45147, 45149, 45148}, []int64{45152, 45153, 45152}, true},
		{"agreeing rounds, one more", []int64{4, 4, 4}, []int64{5, 5, 5}, true},
		{"agreeing rounds, the same", []int64{4, 4, 4}, []int64{4, 4, 4}, false},
		{"fewer", []int64{4, 4, 4}, []int64{3, 3, 3}, false},
	} {
		oldR, newR := baselineReport(), baselineReport()
		oldR.Micro[1].AllocsOp, oldR.Micro[1].RoundsAllocs = slices.Min(c.old), c.old
		newR.Micro[1].AllocsOp, newR.Micro[1].RoundsAllocs = slices.Min(c.new), c.new
		warnings, failures := compareReports(oldR, newR, "quick")
		if len(failures) != 0 || (len(warnings) == 1) != c.warn || len(warnings) > 1 {
			t.Errorf("%s: warnings %v, failures %v; want a warning: %v", c.name, warnings, failures, c.warn)
		}
	}
}

func TestCompareReportsIgnoresUnmatchedMetrics(t *testing.T) {
	oldR := baselineReport()
	newR := baselineReport()
	newR.Figures = append(newR.Figures, figureTiming{ID: "fig99", WallMs: 1e9})
	oldR.Micro = append(oldR.Micro, microBenchResult{Name: "Retired", NsPerOp: 1})
	warnings, failures := compareReports(oldR, newR, "quick")
	if len(warnings) != 0 || len(failures) != 0 {
		t.Fatalf("unmatched metrics flagged: warnings=%v failures=%v", warnings, failures)
	}
	// A micro only the baseline has is named in a note, and that is all.
	if gone := retiredMicros(oldR, newR); len(gone) != 1 || gone[0] != "Retired" {
		t.Fatalf("retired micros = %v, want the one", gone)
	}
}

// TestRunCompareRetiredBaselineRows: a committed baseline that still holds
// rows the program no longer produces (BENCH.json after a micro is deleted
// or renamed) passes the gate end to end.
func TestRunCompareRetiredBaselineRows(t *testing.T) {
	oldR, newR := budgetReport(), budgetReport()
	oldR.Micro = append(oldR.Micro,
		microBenchResult{Name: "ShardedExpire16kShards1", NsPerOp: 1},
		microBenchResult{Name: "ShardedExpire16kShards8", NsPerOp: 1})
	newR.Micro = append(newR.Micro, microBenchResult{Name: "CacheExpire16k", NsPerOp: 600000})
	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")}
	for i, r := range []benchReport{oldR, newR} {
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paths[i], buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if code := runCompare(paths[:]); code != 0 {
		t.Fatalf("retired baseline rows failed the gate: exit %d", code)
	}
	if gone := retiredMicros(oldR, newR); len(gone) != 2 {
		t.Fatalf("retired micros = %v, want both ShardedExpire rows", gone)
	}
}

// On the full tier an occupancy row's seeded outcome is part of the gate:
// a clash count that moved fails however good the wall time looks, and
// the quick tier (whose reports carry stale occupancy rows) stays silent.
func TestCompareReportsFullTierOccupancyOutcome(t *testing.T) {
	row := occupancyRecord{Algorithm: "IR", Sessions: 100000, SpaceSize: 131072,
		Placed: 100000, FillClashes: 3502, ChurnClashes: 710, WallMs: 44000}
	oldR, newR := baselineReport(), baselineReport()
	oldR.Occupancy = []occupancyRecord{row}
	full := "full"

	row.WallMs = 50000 // +14%: inside the band, same outcome
	newR.Occupancy = []occupancyRecord{row}
	if warnings, failures := compareReports(oldR, newR, full); len(warnings) != 0 || len(failures) != 0 {
		t.Fatalf("same outcome flagged: warnings=%v failures=%v", warnings, failures)
	}

	row.WallMs, row.ChurnClashes = 20000, 711 // faster, and wrong
	newR.Occupancy = []occupancyRecord{row}
	_, failures := compareReports(oldR, newR, full)
	if len(failures) != 1 || !strings.Contains(failures[0], "IR/100000 seeded outcome changed") ||
		!strings.Contains(failures[0], "churn-clash=710") || !strings.Contains(failures[0], "churn-clash=711") {
		t.Fatalf("moved churn-clash count not failed by name: %v", failures)
	}
	if warnings, failures := compareReports(oldR, newR, "quick"); len(warnings) != 0 || len(failures) != 0 {
		t.Fatalf("quick tier read the occupancy rows: warnings=%v failures=%v", warnings, failures)
	}

	// A row only one side has is a retired or added run, not a change.
	newR.Occupancy[0].Sessions = 50000
	if _, failures := compareReports(oldR, newR, full); len(failures) != 0 {
		t.Fatalf("unmatched occupancy row failed: %v", failures)
	}
}

func TestParseCompareArgs(t *testing.T) {
	oldP, newP, tier, err := parseCompareArgs([]string{"old.json", "-tier", "full", "new.json"})
	if err != nil {
		t.Fatal(err)
	}
	if oldP != "old.json" || newP != "new.json" {
		t.Fatalf("files = %q, %q", oldP, newP)
	}
	if tier != "full" {
		t.Fatalf("tier = %q", tier)
	}
	if _, _, tier, err := parseCompareArgs([]string{"a", "b"}); err != nil || tier != "quick" {
		t.Fatalf("default tier: %q, %v", tier, err)
	}
	if _, _, _, err := parseCompareArgs([]string{"only-one.json"}); err == nil {
		t.Fatal("single file accepted")
	}
	if _, _, _, err := parseCompareArgs([]string{"a", "b", "-tier", "nightly"}); err == nil {
		t.Fatal("unknown tier accepted")
	}
	// The thresholds are constants: a knob spelled as before is a third
	// file, not a silently different gate.
	if _, _, _, err := parseCompareArgs([]string{"a", "b", "-fail-ratio", "3"}); err == nil {
		t.Fatal("-fail-ratio accepted")
	}
}

// TestRunCompareInjected2xSlowdown is the CI acceptance fixture: a report
// whose figure timing doubled-and-a-bit must make runCompare exit nonzero,
// and one slowed by less than the fail ratio must pass.
func TestRunCompareInjected2xSlowdown(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	if err := os.WriteFile(oldPath, []byte(`{"figures":[{"id":"fig5","wall_ms":1000}],"micro":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// The new report carries budget-compliant micros so the absolute
	// budgets stay quiet and only the injected slowdown drives the gate.
	compare := func(wallMs float64) int {
		r := budgetReport()
		r.Figures = []figureTiming{{ID: "fig5", WallMs: wallMs}}
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(newPath, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return runCompare([]string{oldPath, newPath})
	}
	if code := compare(2100); code != 1 {
		t.Fatalf("2.1x slowdown: exit %d, want 1", code)
	}
	if code := compare(1900); code != 0 {
		t.Fatalf("1.9x slowdown, below the fail ratio, failed the gate: exit %d", code)
	}
}

// budgetReport is a report that satisfies every absolute budget.
func budgetReport() benchReport {
	return benchReport{
		GOOS: "linux",
		Micro: []microBenchResult{
			{Name: "AllocateHybridBatch16", NsPerOp: 400},
			{Name: "SAPDecodeZeroCopy", NsPerOp: 40, AllocsOp: 0},
			{Name: "UDPRecvBatch", NsPerOp: 450, AllocsOp: 0, DgramsPerSec: 2.2e6, BatchDepth: 30},
			{Name: "CheckpointJournalAppend", NsPerOp: 500},
			{Name: "ClashObserveReannounce1k", NsPerOp: 40},
			{Name: "ClashObserveReannounce10k", NsPerOp: 52},
			{Name: "ClashObserveBesideFlood10k", NsPerOp: 60},
			{Name: "ClashDueNothing10k", NsPerOp: 5},
			{Name: "SessionMarshalSDP", NsPerOp: 550, AllocsOp: 1, BytesOp: 352},
			{Name: "SessionKey", NsPerOp: 70, AllocsOp: 1, BytesOp: 24},
			{Name: "SessionParseSDP", NsPerOp: 1500, AllocsOp: 4, BytesOp: 640},
			{Name: "SAPDecodeCompressed", NsPerOp: 4000, AllocsOp: 2, BytesOp: 400},
			{Name: "PayloadDigest", NsPerOp: 0.1},
			{Name: "DirRefreshKnown1k", NsPerOp: 700},
			{Name: "DirRefreshKnown10k", NsPerOp: 900},
			{Name: "DirAdmitUnknown1k", NsPerOp: 5400, AllocsOp: 22},
			{Name: "DirAdmitUnknown10k", NsPerOp: 6700, AllocsOp: 22},
			{Name: "DirStep1k", NsPerOp: 40},
			{Name: "DirStep10k", NsPerOp: 40},
			{Name: "DirStepBudgeted1k", NsPerOp: 160},
			{Name: "DirStepBudgeted10k", NsPerOp: 150},
			{Name: "DirAdmitAtQuota1k", NsPerOp: 1700, AllocsOp: 4},
			{Name: "DirAdmitAtQuota10k", NsPerOp: 2000, AllocsOp: 4},
			{Name: "DirAdmitAtQuotaStale1k", NsPerOp: 1700, AllocsOp: 4},
			{Name: "DirAdmitAtQuotaStale10k", NsPerOp: 2000, AllocsOp: 4},
			{Name: "SPTree1864", NsPerOp: 210000, AllocsOp: 9},
			{Name: "SPTreeGrid51200", NsPerOp: 15000000, AllocsOp: 9},
			{Name: "SimVisibleAt1k", NsPerOp: 1500},
			{Name: "SimVisibleAt10k", NsPerOp: 8000},
			{Name: "SimClashes10k", NsPerOp: 60},
			{Name: "SimPlace10k", NsPerOp: 3000},
			{Name: "DirCreateSession1k", NsPerOp: 7200, AllocsOp: 32},
			{Name: "DirCreateSession10k", NsPerOp: 9400, AllocsOp: 32},
			{Name: "DirLearnClashing10k", NsPerOp: 3000, AllocsOp: 176},
			{Name: "DirLearnClashing100k", NsPerOp: 3600, AllocsOp: 177},
			{Name: "DirStepOwned256", NsPerOp: 40},
			{Name: "DirStepOwned16k", NsPerOp: 42},
			{Name: "DirRecover10k", NsPerOp: 1800, AllocsOp: 4},
			{Name: "DirRecoverBudgeted10k", NsPerOp: 1900, AllocsOp: 4},
		},
	}
}

// micro returns the named row of r for a test to spoil.
func micro(t *testing.T, r *benchReport, name string) *microBenchResult {
	t.Helper()
	for i := range r.Micro {
		if r.Micro[i].Name == name {
			return &r.Micro[i]
		}
	}
	t.Fatalf("fixture has no micro %q", name)
	return nil
}

func TestBudgetFailuresCleanReport(t *testing.T) {
	if fails := budgetFailures(budgetReport()); len(fails) != 0 {
		t.Fatalf("budgets flagged a compliant report: %v", fails)
	}
}

func TestBudgetFailuresHybridBatchTooSlow(t *testing.T) {
	r := budgetReport()
	micro(t, &r, "AllocateHybridBatch16").NsPerOp = 1500 // per address: past the 1µs target
	if fails := budgetFailures(r); len(fails) != 1 {
		t.Fatalf("slow batched Hybrid not caught: %v", fails)
	}
}

func TestBudgetFailuresAllocRegression(t *testing.T) {
	r := budgetReport()
	micro(t, &r, "UDPRecvBatch").AllocsOp = 1 // steady-state receive must stay at zero
	if fails := budgetFailures(r); len(fails) != 1 {
		t.Fatalf("alloc regression not caught: %v", fails)
	}
}

func TestBudgetFailuresDecodeAllocRegression(t *testing.T) {
	r := budgetReport()
	micro(t, &r, "SAPDecodeZeroCopy").AllocsOp = 1 // zero-copy SAP decode must stay at zero
	if fails := budgetFailures(r); len(fails) != 1 {
		t.Fatalf("decode alloc regression not caught: %v", fails)
	}
}

func TestBudgetFailuresBatchDepthCollapse(t *testing.T) {
	r := budgetReport()
	micro(t, &r, "UDPRecvBatch").BatchDepth = 1 // recvmmsg silently degraded to 1:1
	if fails := budgetFailures(r); len(fails) != 1 {
		t.Fatalf("batch-depth collapse not caught: %v", fails)
	}
}

func TestBudgetFailuresMissingMicros(t *testing.T) {
	r := budgetReport()
	r.Micro = nil
	if fails := budgetFailures(r); len(fails) != 39 {
		t.Fatalf("missing micros should produce thirty-nine failures, one per row the budgets read, got: %v", fails)
	}
}

// A quiet tick that walks the owned sessions again, and a budget-full
// recovery that sorts the cache again, each break one budget.
func TestBudgetFailuresOwnedStepAndBudgetedRecovery(t *testing.T) {
	for row, ns := range map[string]float64{"DirStepOwned16k": 2000, "DirRecoverBudgeted10k": 2700} {
		r := budgetReport()
		micro(t, &r, row).NsPerOp = ns
		if fails := budgetFailures(r); len(fails) != 1 || !strings.Contains(fails[0], row) {
			t.Errorf("%s at %g ns/op: %v, want its ratio budget broken", row, ns, fails)
		}
	}
}

func TestBudgetFailuresLearnClashing(t *testing.T) {
	r := budgetReport()
	micro(t, &r, "DirLearnClashing100k").NsPerOp = 30000 // every learn scanning the pending defences again
	if fails := budgetFailures(r); len(fails) != 1 || !strings.Contains(fails[0], "DirLearnClashing") {
		t.Fatalf("a learn that scans the pending defences not caught: %v", fails)
	}
	r = budgetReport()
	micro(t, &r, "DirLearnClashing100k").NsPerOp = 4400 // 1.47x: inside the budget
	if fails := budgetFailures(r); len(fails) != 0 {
		t.Fatalf("a 1.47x learn failed the 1.5x budget: %v", fails)
	}
	r = budgetReport()
	micro(t, &r, "DirLearnClashing10k").Name = "gone"
	if fails := budgetFailures(r); len(fails) != 1 {
		t.Fatalf("a report without DirLearnClashing10k: %v", fails)
	}
}

func TestBudgetFailuresListenerPath(t *testing.T) {
	r := budgetReport()
	micro(t, &r, "ClashObserveReannounce10k").NsPerOp = 400 // tracker Observe scaling with the cache again
	if fails := budgetFailures(r); len(fails) != 1 {
		t.Fatalf("population-dependent tracker Observe not caught: %v", fails)
	}
	r = budgetReport()
	micro(t, &r, "ClashObserveReannounce1k").AllocsOp = 1
	if fails := budgetFailures(r); len(fails) != 1 {
		t.Fatalf("allocating tracker Observe not caught: %v", fails)
	}
	r = budgetReport()
	micro(t, &r, "ClashObserveBesideFlood10k").NsPerOp = 130000 // the re-announcement walking every pending defence
	if fails := budgetFailures(r); len(fails) != 1 || !strings.Contains(fails[0], "BesideFlood") {
		t.Fatalf("a re-announcement paying for the clash flood not caught: %v", fails)
	}
	r = budgetReport()
	micro(t, &r, "ClashObserveBesideFlood10k").AllocsOp = 1
	if fails := budgetFailures(r); len(fails) != 1 {
		t.Fatalf("allocating tracker Observe beside a flood not caught: %v", fails)
	}
	r = budgetReport()
	micro(t, &r, "ClashDueNothing10k").NsPerOp = 46000 // a quiet tick walking every pending defence
	if fails := budgetFailures(r); len(fails) != 1 || !strings.Contains(fails[0], "ClashDueNothing10k") {
		t.Fatalf("a nothing-due Due walking the defences not caught: %v", fails)
	}
	r = budgetReport()
	micro(t, &r, "ClashDueNothing10k").Name = "gone"
	if fails := budgetFailures(r); len(fails) != 1 || !strings.Contains(fails[0], "missing") {
		t.Fatalf("a report without ClashDueNothing10k: %v", fails)
	}
	r = budgetReport()
	micro(t, &r, "SessionMarshalSDP").AllocsOp = 27 // fmt is back in MarshalSDP
	micro(t, &r, "SessionKey").NsPerOp = 350        // and in Key
	if fails := budgetFailures(r); len(fails) != 2 {
		t.Fatalf("codec regressions not caught: %v", fails)
	}
	r = budgetReport()
	micro(t, &r, "SessionParseSDP").AllocsOp = 29     // a string per line is back in ParseSDP
	micro(t, &r, "SAPDecodeCompressed").AllocsOp = 10 // and a zlib reader per datagram
	if fails := budgetFailures(r); len(fails) != 2 {
		t.Fatalf("allocating parse and inflate not caught: %v", fails)
	}
	r = budgetReport()
	micro(t, &r, "DirRefreshKnown10k").AllocsOp = 32 * 28 // every re-announcement parsed again
	micro(t, &r, "PayloadDigest").NsPerOp = 0.9           // a byte-at-a-time digest: 1.1 GB/s
	if fails := budgetFailures(r); len(fails) != 2 {
		t.Fatalf("parsed refreshes and a slow digest not caught: %v", fails)
	}
	r = budgetReport()
	micro(t, &r, "DirRefreshKnown1k").AllocsOp = 1 // a decode slice made per batch again
	if fails := budgetFailures(r); len(fails) != 1 {
		t.Fatalf("an allocating refresh batch not caught: %v", fails)
	}
	r = budgetReport()
	micro(t, &r, "DirRefreshKnown10k").NsPerOp = 9000 // the 10k/1k ratio is recorded, not gated
	if fails := budgetFailures(r); len(fails) != 0 {
		t.Fatalf("DirRefreshKnown's size ratio is gated: %v", fails)
	}
	for _, name := range []string{"SessionParseSDP", "SAPDecodeCompressed", "PayloadDigest", "DirRefreshKnown1k"} {
		r = budgetReport()
		micro(t, &r, name).Name = "gone"
		if fails := budgetFailures(r); len(fails) != 1 {
			t.Fatalf("a report without %s: %v", name, fails)
		}
	}
}

func TestBudgetFailuresDirectoryRebuilds(t *testing.T) {
	r := budgetReport()
	micro(t, &r, "DirAdmitUnknown10k").NsPerOp = 50000 // admission sorting the cache per unknown session again
	if fails := budgetFailures(r); len(fails) != 1 {
		t.Fatalf("population-dependent admission not caught: %v", fails)
	}
	r = budgetReport()
	micro(t, &r, "DirCreateSession10k").AllocsOp = 45 // the view rebuilt by append per create again
	if fails := budgetFailures(r); len(fails) != 1 {
		t.Fatalf("population-dependent create allocations not caught: %v", fails)
	}
	r = budgetReport()
	r.Micro = r.Micro[:len(r.Micro)-1] // DirCreateSession10k not measured
	if fails := budgetFailures(r); len(fails) != 1 {
		t.Fatalf("missing directory micro not caught: %v", fails)
	}
}

// A tick with nothing due is held to zero allocations at both cache sizes,
// and to at most 1.5x at 10k what it costs at 1k.
func TestBudgetFailuresDirStep(t *testing.T) {
	for _, name := range []string{"DirStep1k", "DirStep10k"} {
		r := budgetReport()
		micro(t, &r, name).AllocsOp = 1 // a tick that builds something per call
		if fails := budgetFailures(r); len(fails) != 1 {
			t.Fatalf("allocating %s not caught: %v", name, fails)
		}
		r = budgetReport()
		micro(t, &r, name).Name = "gone"
		if fails := budgetFailures(r); len(fails) != 1 {
			t.Fatalf("a report without %s: %v", name, fails)
		}
	}
	r := budgetReport()
	micro(t, &r, "DirStep10k").NsPerOp = 4000 // a full cache scan per tick
	if fails := budgetFailures(r); len(fails) != 1 || !strings.Contains(fails[0], "DirStep10k") {
		t.Fatalf("a tick that scans the cache not caught: %v", fails)
	}
	r = budgetReport()
	micro(t, &r, "DirStep10k").NsPerOp = 58 // 1.45x: inside the budget
	if fails := budgetFailures(r); len(fails) != 0 {
		t.Fatalf("a 1.45x tick failed the 1.5x budget: %v", fails)
	}
}

// A budgeted tick is held to zero allocations and a denial at the quota to
// the same allocations at both cache sizes, and each to at most 1.5x at 10k
// what it costs at 1k. A shortest-path tree is held to a constant
// allocation count at both graph sizes.
func TestBudgetFailuresBudgetedDirectory(t *testing.T) {
	for _, name := range []string{"DirStepBudgeted1k", "DirStepBudgeted10k", "DirAdmitAtQuota1k", "DirAdmitAtQuota10k", "DirAdmitAtQuotaStale1k", "DirAdmitAtQuotaStale10k", "SPTree1864", "SPTreeGrid51200"} {
		r := budgetReport()
		micro(t, &r, name).Name = "gone"
		if fails := budgetFailures(r); len(fails) != 1 {
			t.Fatalf("a report without %s: %v", name, fails)
		}
	}
	for _, name := range []string{"DirStepBudgeted1k", "DirStepBudgeted10k"} {
		r := budgetReport()
		micro(t, &r, name).AllocsOp = 1 // a tick that builds something per call
		if fails := budgetFailures(r); len(fails) != 1 {
			t.Fatalf("allocating %s not caught: %v", name, fails)
		}
	}
	for _, name := range []string{"DirAdmitAtQuota10k", "DirAdmitAtQuotaStale10k"} {
		r := budgetReport()
		micro(t, &r, name).AllocsOp = 5 // a denial that collects something per cached entry
		if fails := budgetFailures(r); len(fails) != 1 {
			t.Fatalf("population-dependent denial allocations in %s not caught: %v", name, fails)
		}
	}
	r := budgetReport()
	micro(t, &r, "SPTree1864").AllocsOp = 1442 // a child slice per parent and a growing heap again
	if fails := budgetFailures(r); len(fails) != 1 {
		t.Fatalf("per-node tree allocations not caught: %v", fails)
	}
	r = budgetReport()
	micro(t, &r, "SPTreeGrid51200").AllocsOp = 10 // one allocation that grows with the graph
	if fails := budgetFailures(r); len(fails) != 1 {
		t.Fatalf("a tree allocation over budget not caught: %v", fails)
	}
	for _, c := range []struct {
		name string
		ns   float64
	}{
		{"DirStepBudgeted10k", 370000},     // a fresh-count scan per tick
		{"DirAdmitAtQuota10k", 210000},     // a walk of the whole order per denial
		{"DirAdmitAtQuotaStale10k", 70000}, // a walk of the stale third per denial
	} {
		r = budgetReport()
		micro(t, &r, c.name).NsPerOp = c.ns
		if fails := budgetFailures(r); len(fails) != 1 || !strings.Contains(fails[0], c.name) {
			t.Fatalf("a %s that walks the cache not caught: %v", c.name, fails)
		}
	}
}

// The simulator's view, clash test and whole placement are held to zero
// allocations, and the view's 10k/1k ratio is recorded, not gated.
func TestBudgetFailuresSimWorld(t *testing.T) {
	for _, name := range []string{"SimVisibleAt1k", "SimVisibleAt10k", "SimClashes10k", "SimPlace10k"} {
		r := budgetReport()
		micro(t, &r, name).AllocsOp = 1 // a view built per call
		if fails := budgetFailures(r); len(fails) != 1 {
			t.Fatalf("allocating %s not caught: %v", name, fails)
		}
		r = budgetReport()
		micro(t, &r, name).Name = "gone"
		if fails := budgetFailures(r); len(fails) != 1 {
			t.Fatalf("a report without %s: %v", name, fails)
		}
	}
	r := budgetReport()
	micro(t, &r, "SimVisibleAt10k").NsPerOp = 150000 // a scan of every resident: slow, but not gated
	if fails := budgetFailures(r); len(fails) != 0 {
		t.Fatalf("SimVisibleAt's size ratio is gated: %v", fails)
	}
}

// The O(delta)-vs-O(sessions) claim used to be a ratio against a frozen
// full-snapshot writer; an append that costs what a snapshot did is now
// caught by the absolute budget.
func TestBudgetFailuresCheckpointRatioCollapse(t *testing.T) {
	r := budgetReport()
	micro(t, &r, "CheckpointJournalAppend").NsPerOp = 40000 // an append that rewrites something
	if fails := budgetFailures(r); len(fails) != 1 {
		t.Fatalf("O(sessions)-cost journal append not caught: %v", fails)
	}
}

// The budgets that replaced the races against frozen baselines.
func TestBudgetFailuresAbsoluteBudgets(t *testing.T) {
	for _, c := range []struct {
		name  string
		spoil func(*microBenchResult)
	}{
		{"CheckpointJournalAppend", func(m *microBenchResult) { m.AllocsOp = 1 }}, // the frame buffer no longer reused
		{"SAPDecodeZeroCopy", func(m *microBenchResult) { m.NsPerOp = 300 }},      // several times the zero-copy decode
		{"UDPRecvBatch", func(m *microBenchResult) { m.NsPerOp = 1600 }},          // dearer than one read per datagram ever was
	} {
		r := budgetReport()
		c.spoil(micro(t, &r, c.name))
		if fails := budgetFailures(r); len(fails) != 1 {
			t.Errorf("spoiled %s not caught: %v", c.name, fails)
		}
	}
}

func TestBudgetFailuresDepthGateLinuxOnly(t *testing.T) {
	r := budgetReport()
	r.GOOS = "darwin"
	micro(t, &r, "UDPRecvBatch").BatchDepth = 1 // fine off linux: no recvmmsg there
	micro(t, &r, "UDPRecvBatch").NsPerOp = 1900 // and no per-datagram budget either
	if fails := budgetFailures(r); len(fails) != 0 {
		t.Fatalf("non-linux report held to linux-only gates: %v", fails)
	}
}

var sink []byte

// The estimator reports a row's fastest round, with the slowest in its
// spread; a ratio budget over two rows reads the median of the rounds'
// ratios, so one round the host slowed for one row decides neither.
// Allocations are counted per op, and what a row runs off its clock is
// not timed. Slow and Base charge their cost to the clock (a negative
// untimed), so that it does not depend on how busy the host is.
func TestMeasureRoundsSlowRound(t *testing.T) {
	passes := 0
	rows := []microRow{
		{"Slow", 1, func(n int) {
			per := 2 * time.Microsecond
			if passes++; passes == 3 {
				per *= 8 // the host is busy this round
			}
			untimed -= time.Duration(n) * per
		}},
		{"Base", 1, func(n int) { untimed -= time.Duration(n) * time.Microsecond }},
		{"Alloc", 1, each(func(int) { sink = make([]byte, 64) })},
		{"OffClock", 1, each(func(int) { offClock(func() { time.Sleep(time.Millisecond) }) })},
	}
	out := measureRounds(rows, []int{1000, 1000, 100000, 5})
	slow, base, alloc, off := out[0], out[1], out[2], out[3]
	if len(slow.RoundsNs) != microRounds {
		t.Fatalf("%d rounds recorded, want %d", len(slow.RoundsNs), microRounds)
	}
	if slow.NsPerOp < 2000 || slow.NsPerOp > 2500 {
		t.Errorf("Slow reads %.0f ns/op, want its fast rounds' 2000", slow.NsPerOp)
	}
	if slow.Spread < 6 {
		t.Errorf("Slow's spread %.2f does not show its 8x round", slow.Spread)
	}
	rule := budget{"Slow", ratioAtMost, 3, "Base", "twice Base"}
	if r := slow.RoundsNs[2] / base.RoundsNs[2]; r <= rule.limit {
		t.Fatalf("the slow round's ratio %.2f is inside the budget: the case tests nothing", r)
	}
	if fail := rule.check(slow, base); fail != "" {
		t.Errorf("one slow round failed a ratio budget: %s", fail)
	}
	if alloc.AllocsOp != 1 || alloc.BytesOp != 64 {
		t.Errorf("Alloc reads %d allocs and %d B/op, want 1 and 64", alloc.AllocsOp, alloc.BytesOp)
	}
	if off.NsPerOp > float64(500*time.Microsecond) {
		t.Errorf("OffClock reads %.0f ns/op: its 1 ms off the clock was timed", off.NsPerOp)
	}
}

// The two rows of a ratio budget take each round in turns, a tenth at a
// time, and run every op the round owes them; a row alone runs its round
// in one go.
func TestMeasureRoundsRatioRowsTakeTurns(t *testing.T) {
	var log []string
	row := func(name string) microRow {
		return microRow{name, 1, func(n int) { log = append(log, fmt.Sprintf("%s:%d", name, n)) }}
	}
	out := measureRounds([]microRow{row("DirStep1k"), row("DirStep10k"), row("Alone")}, []int{20, 30, 7})
	want := []string{"DirStep1k:2", "DirStep10k:3"}
	for i := 0; i < 10; i++ {
		if log[2*i] != want[0] || log[2*i+1] != want[1] {
			t.Fatalf("a round of the paired rows ran as %v, want them in turns of %v", log[:21], want)
		}
	}
	if log[20] != "Alone:7" || len(log) != 21*microRounds || len(out[2].RoundsNs) != microRounds {
		t.Fatalf("rows ran as %v", log)
	}
}

// A drift every micro shares is the host's, not the change's: it cancels.
// A row that moves alone is still caught.
func TestCompareReportsNormalisesDrift(t *testing.T) {
	oldR := budgetReport()
	scaled := func(f float64) benchReport {
		r := budgetReport()
		for i := range r.Micro {
			r.Micro[i].NsPerOp *= f
		}
		return r
	}
	if warnings, failures := compareReports(oldR, scaled(1.6), "quick"); len(warnings) != 0 || len(failures) != 0 {
		t.Fatalf("a 1.6x drift of every row flagged: warnings=%v failures=%v", warnings, failures)
	}
	newR := budgetReport()
	micro(t, &newR, "SessionParseSDP").NsPerOp *= 3.3
	warnings, failures := compareReports(oldR, newR, "quick")
	if len(warnings) != 0 || len(failures) != 1 || !strings.Contains(failures[0], "SessionParseSDP") {
		t.Fatalf("one row at 3.3x its baseline: warnings=%v failures=%v, want it failed", warnings, failures)
	}
}
