package main

import (
	"context"
	"hash/crc32"
	"net/netip"
	"strings"
	"time"

	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
	"sessiondir/internal/storage"
	"sessiondir/internal/transport"
)

// The interposers sit at the seams the program already has — the
// transport it sends through, the allocator it is configured with, the
// filesystem its journal writes to. They always count (the counts feed
// the outcome fingerprint and the failure check) and record spans only
// when a tracer is attached.

// vclock is the injected Config.Clock: time moves only when the script
// says so, so every rep sees the same timestamps.
type vclock struct{ t time.Time }

func (c *vclock) Now() time.Time          { return c.t }
func (c *vclock) advance(d time.Duration) { c.t = c.t.Add(d) }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recTransport is the benchmark-owned in-memory transport. It delivers
// nothing (the driver calls HandleBatch itself) and records what the
// program sends: datagram and byte counts and a running CRC of every
// byte in send order, which puts allocated addresses and re-announcement
// order into the fingerprint without retaining the packets.
type recTransport struct {
	tr     *tracer
	dgrams uint64
	bytes  uint64
	crc    uint32
}

var (
	_ transport.Transport   = (*recTransport)(nil)
	_ transport.BatchSender = (*recTransport)(nil)
)

func (t *recTransport) record(data []byte) {
	t.dgrams++
	t.bytes += uint64(len(data))
	t.crc = crc32.Update(t.crc, castagnoli, data)
}

func (t *recTransport) Send(_ context.Context, data []byte, _ mcast.TTL) error {
	sp := t.tr.begin(opTransportSend)
	t.record(data)
	t.tr.end(sp)
	return nil
}

func (t *recTransport) SendBatch(_ context.Context, batch []transport.Datagram) error {
	sp := t.tr.begin(opTransportSend)
	for _, d := range batch {
		t.record(d.Data)
	}
	t.tr.end(sp)
	return nil
}

func (t *recTransport) Subscribe(transport.Handler) {}
func (t *recTransport) LocalAddr() netip.AddrPort   { return netip.AddrPort{} }
func (t *recTransport) Close() error                { return nil }

// countAlloc wraps the allocator handed to the program (Config.Allocator
// for a Directory, the placement loop for the simulator).
type countAlloc struct {
	allocator.Allocator
	tr         *tracer
	calls      uint64
	viewLen    uint64 // summed len(visible) over Allocate and AllocateBatch
	failed     uint64
	batchCalls uint64
	batchAddrs uint64
}

func (a *countAlloc) Allocate(visible []allocator.SessionInfo, ttl mcast.TTL, rng *stats.RNG) (mcast.Addr, error) {
	sp := a.tr.begin(opAllocate)
	addr, err := a.Allocator.Allocate(visible, ttl, rng)
	a.tr.end(sp)
	a.calls++
	a.viewLen += uint64(len(visible))
	if err != nil {
		a.failed++
	}
	return addr, err
}

func (a *countAlloc) AllocateBatch(visible []allocator.SessionInfo, ttl mcast.TTL, k int, dst []mcast.Addr, rng *stats.RNG) ([]mcast.Addr, error) {
	sp := a.tr.begin(opAllocateBatch)
	before := len(dst)
	out, err := a.Allocator.AllocateBatch(visible, ttl, k, dst, rng)
	a.tr.end(sp)
	a.batchCalls++
	a.batchAddrs += uint64(len(out) - before)
	a.viewLen += uint64(len(visible))
	if err != nil {
		a.failed++
	}
	return out, err
}

// countFS wraps the MemFS the cache store journals to. Journal traffic is
// told apart from snapshot traffic by file name, so append cost can be
// reported per batch.
type countFS struct {
	storage.FS
	tr           *tracer
	writes       uint64
	syncs        uint64 // file syncs plus root syncs
	journalBytes uint64
	journalSyncs uint64 // one per appended batch
}

func (f *countFS) Create(name string) (storage.File, error) {
	sp := f.tr.begin(opFSOther)
	file, err := f.FS.Create(name)
	f.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &countFile{File: file, fs: f, journal: strings.Contains(name, ".journal")}, nil
}

func (f *countFS) Rename(oldname, newname string) error {
	sp := f.tr.begin(opFSOther)
	defer f.tr.end(sp)
	return f.FS.Rename(oldname, newname)
}

func (f *countFS) Remove(name string) error {
	sp := f.tr.begin(opFSOther)
	defer f.tr.end(sp)
	return f.FS.Remove(name)
}

func (f *countFS) SyncRoot() error {
	sp := f.tr.begin(opFSSync)
	defer f.tr.end(sp)
	f.syncs++
	return f.FS.SyncRoot()
}

// countFile counts one file opened for writing. A journal file keeps its
// role across the store's rename of base.journal.tmp to base.journal.
type countFile struct {
	storage.File
	fs      *countFS
	journal bool
}

func (c *countFile) Write(p []byte) (int, error) {
	sp := c.fs.tr.begin(opFSWrite)
	n, err := c.File.Write(p)
	c.fs.tr.end(sp)
	c.fs.writes++
	if c.journal {
		c.fs.journalBytes += uint64(n)
	}
	return n, err
}

func (c *countFile) Sync() error {
	sp := c.fs.tr.begin(opFSSync)
	err := c.File.Sync()
	c.fs.tr.end(sp)
	c.fs.syncs++
	if c.journal {
		c.fs.journalSyncs++
	}
	return err
}
