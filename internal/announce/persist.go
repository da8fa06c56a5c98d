package announce

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"

	"sessiondir/internal/session"
)

// Cache persistence: sdr kept its session cache on disk so a restarted
// instance came up with "a complete current picture" instead of waiting a
// full announcement interval for every session — §2.3 leans on exactly
// this ("combined with local caching servers...") when arguing the
// invisible fraction can be kept small.
//
// Format (line-oriented):
//
//	sdcache v1
//	entry <firstHeardUnix> <lastHeardUnix> <sdpByteLen>
//	<sdp bytes>
//	...
//
// Deleted entries are not persisted: a restart may briefly resurrect a
// deleted session, which the deletion's re-announcement squelches.

const cacheHeader = "sdcache v1"

// Save writes all live entries to w.
func (c *Cache) Save(w io.Writer) error {
	return saveEntries(w, c.Live())
}

// saveEntries writes the v1 cache format for the given entries; shared
// by the flat cache (map order) and the sharded cache (sorted order).
func saveEntries(w io.Writer, entries []*Entry) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, cacheHeader); err != nil {
		return err
	}
	for _, e := range entries {
		data, err := e.Desc.MarshalSDP()
		if err != nil {
			continue // skip invalid cached descriptions
		}
		// bufio.Writer errors are sticky: once a write fails, later writes
		// are no-ops and the final Flush returns the first error.
		fmt.Fprintf(bw, "entry %d %d %d\n", e.FirstHeard.Unix(), e.LastHeard.Unix(), len(data)) //mclint:errdrop sticky; Flush reports it
		bw.Write(data)                                                                          //mclint:errdrop sticky; Flush reports it
		bw.WriteByte('\n')                                                                      //mclint:errdrop sticky; Flush reports it
	}
	return bw.Flush()
}

// Load merges persisted entries into the cache. Entries already expired
// relative to now (per the cache timeout) are skipped; fresher in-memory
// state wins over stale disk state. Returns the number of entries loaded.
func (c *Cache) Load(r io.Reader, now time.Time) (int, error) {
	return loadEntries(r, c.Restore, now)
}

// loadEntries parses the v1 cache format, handing each decoded entry to
// restore (Cache.Restore or the sharded equivalent) and counting the
// ones it reports as newly added.
func loadEntries(r io.Reader, restore func(desc *session.Description, first, last, now time.Time) bool, now time.Time) (int, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("announce: cache read: %w", err)
	}
	if strings.TrimSpace(header) != cacheHeader {
		return 0, fmt.Errorf("announce: bad cache header %q", strings.TrimSpace(header))
	}
	loaded := 0
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF && line == "" {
			break
		}
		if err != nil && line == "" {
			return loaded, fmt.Errorf("announce: cache read: %w", err)
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var first, last int64
		var size int
		if _, err := fmt.Sscanf(line, "entry %d %d %d", &first, &last, &size); err != nil {
			return loaded, fmt.Errorf("announce: bad cache entry %q", line)
		}
		if size < 0 || size > 1<<20 {
			return loaded, fmt.Errorf("announce: implausible entry size %d", size)
		}
		buf := make([]byte, size+1) // + trailing newline
		if _, err := io.ReadFull(br, buf); err != nil {
			return loaded, fmt.Errorf("announce: truncated cache entry: %w", err)
		}
		desc, err := session.ParseSDP(buf[:size])
		if err != nil {
			continue // a corrupt entry should not poison the rest
		}
		if restore(desc, time.Unix(first, 0), time.Unix(last, 0), now) {
			loaded++
		}
	}
	return loaded, nil
}

// Restore merges one persisted entry, with Load's exact semantics:
// entries stale relative to now are skipped, fresher in-memory state
// wins over disk state (version upgrades excepted). The journaled store
// replays snapshot and journal records through this one entry at a
// time. Reports whether the entry was added as new.
func (c *Cache) Restore(desc *session.Description, first, last, now time.Time) bool {
	if now.Sub(last) > c.Timeout {
		return false // stale on disk
	}
	key := desc.Key()
	if existing, ok := c.entries[key]; ok {
		// In-memory state is at least as fresh; only upgrade versions.
		if desc.Version > existing.Desc.Version && !existing.Deleted {
			c.adBytes -= existing.adBytes
			existing.Desc = desc
			existing.adBytes = c.adSize(desc)
			c.adBytes += existing.adBytes
			c.indexUpdate(existing)
		}
		return false
	}
	e := &Entry{
		Desc:       desc,
		FirstHeard: first,
		LastHeard:  last,
		adBytes:    c.adSize(desc),
	}
	c.entries[key] = e
	c.live++
	c.adBytes += e.adBytes
	c.indexAdd(e)
	return true
}
