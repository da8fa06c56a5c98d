package announce

import (
	"testing"
	"time"
)

// Restore is what journal and snapshot replay call per persisted entry;
// these are its merge rules, one test each.

func TestCacheLoadSkipsStale(t *testing.T) {
	now := time.Unix(900000000, 0)
	fresh := NewCache(10 * time.Minute)
	// Last heard an hour before the restart: far past the timeout.
	if restore(fresh, desc(1, 1), 0, now, now, now.Add(time.Hour)) || fresh.Len() != 0 {
		t.Fatalf("stale entry restored: %d live", fresh.Len())
	}
	// Inside the timeout it is added with the persisted timestamps, not
	// the restart's.
	first, last := now.Add(-time.Minute), now
	if !restore(fresh, desc(2, 3), 0, first, last, now.Add(9*time.Minute)) {
		t.Fatal("entry inside the timeout skipped")
	}
	e, ok := fresh.Get(desc(2, 3).Key())
	if !ok || e.Desc.Version != 3 || e.FirstHeard != first.Unix() || !e.LastHeard.Equal(last) {
		t.Fatalf("restored entry: %+v", e)
	}
}

func TestCacheLoadMergePrefersFresh(t *testing.T) {
	now := time.Unix(900000000, 0)
	// The live cache already knows a *newer* version.
	live := NewCache(time.Hour)
	live.Observe(desc(1, 5), now.Add(time.Minute))
	if restore(live, desc(1, 1), 0, now, now, now.Add(2*time.Minute)) {
		t.Fatal("duplicate entry counted as added")
	}
	e, _ := live.Get(desc(1, 5).Key())
	if e.Desc.Version != 5 || !e.LastHeard.Equal(now.Add(time.Minute)) {
		t.Fatalf("memory lost to disk: v%d heard %v", e.Desc.Version, e.LastHeard)
	}
}

func TestCacheLoadUpgradesVersion(t *testing.T) {
	now := time.Unix(900000000, 0)
	live := NewCache(time.Hour)
	live.Observe(desc(1, 2), now.Add(time.Second))
	if restore(live, desc(1, 9), 0, now, now, now.Add(time.Minute)) {
		t.Fatal("upgrade of a known entry counted as added")
	}
	e, _ := live.Get(desc(1, 2).Key())
	if e.Desc.Version != 9 {
		t.Fatalf("disk had v9, cache has v%d", e.Desc.Version)
	}
	// A tombstone is not upgraded back to life.
	live.Delete(desc(1, 9).Key(), now.Add(2*time.Second))
	restore(live, desc(1, 12), 0, now, now, now.Add(time.Minute))
	if _, ok := live.Get(desc(1, 12).Key()); ok {
		t.Fatal("restore resurrected a deleted entry")
	}
}
