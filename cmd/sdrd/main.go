// Command sdrd is a session directory daemon: it announces sessions from
// the command line over SAP, listens for everyone else's announcements,
// allocates addresses with Deterministic Adaptive IPRMA, and runs the
// three-phase clash correction protocol.
//
// By default it joins the well-known SAP group (224.2.127.254:9875), which
// needs multicast-capable networking. With -peers it switches to unicast
// fan-out so a set of daemons can run on hosts (or ports) without
// multicast routing:
//
//	sdrd -origin 10.0.0.1 -listen 127.0.0.1:7001 -peers 127.0.0.1:7002 \
//	     -announce "Team standup" -ttl 15
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"net/netip"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"sessiondir"
	"sessiondir/internal/announce"
	"sessiondir/internal/mcast"
	"sessiondir/internal/obs"
	"sessiondir/internal/session"
	"sessiondir/internal/storage"
	"sessiondir/internal/transport"
)

// traceCapacity is the debug event ring's depth: enough to hold minutes
// of steady-state protocol activity while bounding memory.
const traceCapacity = 4096

// main stays a shell around run so that every deferred cleanup — above all
// the final cache save — executes on the error paths too (log.Fatal inside
// the work function would skip them all).
func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		origin     = flag.String("origin", "127.0.0.1", "our IPv4 address, stamped on announcements; daemons sharing a host need distinct origins, or two sessions created in one 65.5 µs tick share a key")
		group      = flag.String("group", transport.DefaultSAPGroup.String(), "SAP multicast group")
		port       = flag.Uint("port", transport.DefaultSAPPort, "SAP UDP port")
		peers      = flag.String("peers", "", "comma-separated unicast peers (disables multicast)")
		listen     = flag.String("listen", "", "unicast listen address (with -peers)")
		sessName   = flag.String("announce", "", "announce a session with this name")
		ttl        = flag.Uint("ttl", 127, "scope TTL for the announced session")
		duration   = flag.Duration("for", 0, "exit after this long (0 = run until signal)")
		cacheFile  = flag.String("cache", "", "persist the session cache to this file (journaled checkpoints) across restarts")
		checkpoint = flag.Duration("checkpoint", time.Minute, "with -cache, fold the journal into a fresh snapshot at this interval (0 = only on exit)")

		storageFaults = flag.String("storage-faults", "", `with -cache, inject deterministic disk faults, e.g. "seed=7,write=0.02,short=0.01,nospace=0.01,sync=0.05" (chaos harness use)`)

		maxSessions  = flag.Int("max-sessions", 0, "bound the listened-session cache; overload is shed drop-newest (0 = unlimited)")
		maxPerOrigin = flag.Int("max-per-origin", 0, "bound cached sessions per announcing origin (0 = unlimited)")
		originRate   = flag.Float64("origin-rate", 0, "per-origin packet budget in packets/second (0 = unlimited)")
		originBurst  = flag.Float64("origin-burst", 0, "per-origin token-bucket depth in packets (0 = max(8, 4x rate))")
		staleAfter   = flag.Duration("stale-after", 0, "cached sessions unheard this long become evictable under budget pressure (0 = cache timeout / 4)")
		cacheTimeout = flag.Duration("cache-timeout", 0, "expire unheard sessions after this long (0 = one hour)")

		seed            = flag.Uint64("seed", 0, "RNG seed for allocation and clash timing (0 = derive from -origin and PID so identically configured daemons diverge)")
		announceInitial = flag.Duration("announce-initial", 0, "first re-announcement delay, doubling each round up to a steady 4x it (longer only if the scope's bandwidth budget needs it), so 2s announces at 0, 2, 6, 14s and every 8s after (0 = paper's 5s schedule, steady at 300s; lower only for tests/chaos harnesses)")
		httpDebug       = flag.String("http-debug", "", "serve /metrics, /trace, /debug/vars and /debug/pprof on this address (empty = disabled)")
	)
	flag.Parse()

	// Take SIGINT and SIGTERM before anything can see the daemon — the
	// debug server answers while the cache loads and the first checkpoint
	// syncs — so a stop sent the moment it answers is a clean shutdown,
	// not the default action's kill. One that arrives during start-up is
	// acted on as soon as the directory runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := obs.NewRegistry()
	udp, err := openTransport(*group, uint16(*port), *peers, *listen, reg)
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	defer func() { _ = udp.Close() }() // exiting anyway; socket errors have nowhere to go

	originAddr, err := netip.ParseAddr(*origin)
	if err != nil {
		return fmt.Errorf("bad -origin: %w", err)
	}

	seedVal := *seed
	if seedVal == 0 {
		seedVal = deriveSeed(*origin, os.Getpid())
		log.Printf("seed: %#x (derived from origin+pid; pin with -seed to replay)", seedVal)
	}
	var trace *obs.Trace
	if *httpDebug != "" {
		trace = obs.NewTrace(traceCapacity)
	}

	dir, err := sessiondir.New(sessiondir.Config{
		Origin:       originAddr,
		Transport:    udp,
		MaxSessions:  *maxSessions,
		MaxPerOrigin: *maxPerOrigin,
		OriginRate:   *originRate,
		OriginBurst:  *originBurst,
		StaleAfter:   *staleAfter,
		CacheTimeout: *cacheTimeout,
		Backoff:      announce.CompressedBackoff(*announceInitial),
		Seed:         seedVal,
		Obs:          reg,
		OnEvent: func(e sessiondir.Event) {
			trace.Record(e.TraceEvent) // a nil ring records nothing
			if e.Kind == obs.TraceAllocate || e.Kind == obs.TraceShed {
				return // an announce follows each allocate; a flood sheds by the thousand
			}
			if desc := e.Description(); desc != nil {
				log.Printf("%s: %s (%s ttl=%d)", e.Kind, desc.Name, desc.Group, desc.TTL)
			} else {
				log.Printf("%s: %s", e.Kind, e.Key)
			}
		},
	})
	if err != nil {
		return fmt.Errorf("directory: %w", err)
	}
	defer dir.Close()

	// ready flips once the socket is bound (it is, the transport is up),
	// the cache restore has completed, and the initial announcement is
	// out — the point where a supervisor can route traffic at us.
	// storageOK drops when checkpoints have failed persistently: the
	// daemon keeps serving the protocol (liveness unaffected) but tells
	// the supervisor its durability story is degraded.
	var ready, storageOK atomic.Bool
	storageOK.Store(true)
	if *httpDebug != "" {
		stopDebug, err := startDebugServer(*httpDebug, reg, trace, dir, &ready, &storageOK)
		if err != nil {
			return err
		}
		defer stopDebug()
	}

	var cstore *sessiondir.CacheStore
	if *cacheFile != "" {
		// A corrupt or truncated cache is a cold start, not a fatal error:
		// damaged files are quarantined (with the readable prefix salvaged)
		// and the announce-listen protocol rebuilds the picture from the
		// network within an announcement interval anyway.
		var fsys storage.FS = storage.NewOSFS(filepath.Dir(*cacheFile))
		if *storageFaults != "" {
			fseed, prof, err := storage.ParseFaultSpec(*storageFaults)
			if err != nil {
				return err
			}
			fsys = storage.NewFaultFS(fsys, fseed, prof)
			log.Printf("storage faults armed: %s", *storageFaults)
		}
		cs, rec, err := sessiondir.OpenCacheStore(fsys, filepath.Base(*cacheFile), dir)
		if err != nil {
			log.Printf("cache load: %v (starting cold)", err)
			storageOK.Store(false)
		} else {
			cstore = cs
			for _, note := range rec.Notes {
				log.Printf("cache recovery: %s", note)
			}
			if rec.Corrupt > 0 {
				log.Printf("cache load: quarantined %d corrupt checkpoint file(s) %v, salvaged %d record(s) from before the damage (starting cold otherwise)",
					rec.Corrupt, rec.Quarantined, rec.Salvaged)
			}
			if n := cs.Loaded(); n > 0 {
				log.Printf("loaded %d cached sessions from %s", n, *cacheFile)
			}
			// The first checkpoint captures the recovered state and opens
			// the delta journal; until it succeeds the store refuses
			// appends, so a failure here only delays durability.
			if err := cs.Checkpoint(); err != nil {
				log.Printf("cache checkpoint: %v (will retry)", err)
			}
			defer func() {
				if err := cs.Checkpoint(); err != nil {
					log.Printf("cache save: %v", err)
				}
				if err := cs.Close(); err != nil {
					log.Printf("cache close: %v", err)
				}
			}()
		}
	}

	if *sessName != "" {
		desc, err := dir.CreateSession(&session.Description{
			Name: *sessName,
			TTL:  mcast.TTL(*ttl),
			Media: []session.Media{
				{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0"},
			},
			Start: time.Now(),
			Stop:  time.Now().Add(4 * time.Hour),
		})
		if err != nil {
			return fmt.Errorf("announce: %w", err)
		}
		log.Printf("announcing %q on %s with TTL %d", desc.Name, desc.Group, desc.TTL)
	}
	ready.Store(true)

	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	// Graceful shutdown: on a signal or -for expiry, drain the UDP read
	// loop before the final checkpoint defer (registered above, so it runs
	// after this one) — a tail burst still queued in the kernel's socket
	// buffer makes it into the saved cache instead of being discarded with
	// the socket. Error-path exits skip the drain and close fast.
	defer func() {
		if ctx.Err() == nil {
			return
		}
		ready.Store(false)
		log.Println("draining: waiting for the UDP read loop to quiesce")
		if err := udp.DrainClose(200*time.Millisecond, 2*time.Second); err != nil {
			log.Printf("drain: %v", err)
		}
	}()

	// Periodic checkpoints fold the delta journal into a fresh snapshot.
	// Between checkpoints every learned/expired/deleted session is already
	// durable as a journal append, so an unclean exit (OOM kill, power
	// loss) costs at most the deltas of one in-flight batch; the
	// compaction itself is crash-atomic (write-new, fsync, rename).
	// sessiondir.Checkpointer holds the retry rule: failures back off, and
	// persistent ones degrade /readyz to 503 storage-degraded — the daemon
	// keeps serving the protocol, it just stops claiming durability. The
	// first success heals both.
	if cstore != nil && *checkpoint > 0 {
		go func() {
			ck := sessiondir.NewCheckpointer(cstore, *checkpoint)
			timer := time.NewTimer(*checkpoint)
			defer timer.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-timer.C:
				}
				failed := ck.Failures()
				next, err := ck.Tick()
				storageOK.Store(!ck.Degraded())
				if err != nil {
					log.Printf("cache checkpoint: %v (attempt %d, next retry in %v)", err, ck.Failures(), next)
				} else if failed > 0 {
					log.Printf("cache checkpoint: recovered after %d failed attempts", failed)
				}
				timer.Reset(next)
			}
		}()
	}

	// SIGUSR1 (where the platform has it) dumps the full health picture on
	// demand: directory metrics including the admission counters, the UDP
	// quarantine counters, and — with -cache — an immediate checkpoint, so
	// an operator diagnosing a suspected flood gets state without waiting
	// for a ticker or restarting the daemon.
	if sigs := dumpSignals(); len(sigs) > 0 {
		dump := make(chan os.Signal, 1)
		signal.Notify(dump, sigs...)
		go func() {
			for {
				select {
				case <-ctx.Done():
					signal.Stop(dump)
					return
				case <-dump:
					m := dir.Metrics()
					log.Printf("dump: sessions=%d cache=%d sent=%d recv=%d learned=%d expired=%d",
						len(dir.Sessions()), dir.CacheSize(), m.AnnouncementsSent,
						m.PacketsReceived, m.SessionsLearned, m.SessionsExpired)
					log.Printf("dump: admission shed=%d quota-drops=%d evictions=%d forged-reports=%d forged-deletes=%d",
						m.Shed, m.QuotaDrops, m.Evictions, m.ForgedReports, m.ForgedDeletes)
					u := udp.Metrics()
					log.Printf("dump: udp received=%d oversized=%d runts=%d read-errors=%d",
						u.Received, u.Oversized, u.Runts, u.ReadErrors)
					if cstore != nil {
						st := cstore.Stats()
						log.Printf("dump: storage journal=%d broken=%v compactions=%d checkpoint-errors=%d appended=%d append-errors=%d salvaged=%d corrupt=%d",
							st.JournalRecords, st.Broken, st.Compactions, st.CheckpointErrors,
							st.Appended, st.AppendErrors, st.Salvaged, st.Corrupt)
						if err := cstore.Checkpoint(); err != nil {
							log.Printf("dump checkpoint: %v", err)
						} else {
							log.Printf("dump: checkpoint saved to %s", *cacheFile)
						}
					}
				}
			}
		}()
	}

	// Periodically print the directory contents, like sdr's session list.
	go func() {
		tick := time.NewTicker(10 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				sessions := dir.Sessions()
				m := dir.Metrics()
				log.Printf("---- %d sessions known | sent=%d recv=%d learned=%d moves=%d defenses=%d/%d dropped=%d forged=%d ----",
					len(sessions), m.AnnouncementsSent, m.PacketsReceived, m.SessionsLearned,
					m.ClashAddressChanges, m.ClashDefensesOwn, m.ClashDefensesThird,
					m.Shed+m.QuotaDrops, m.ForgedReports+m.ForgedDeletes)
				for _, s := range sessions {
					log.Printf("  %-30q %s ttl=%d from %s", s.Name, s.Group, s.TTL, s.Origin)
				}
			}
		}
	}()

	if err := dir.Run(ctx); err != nil && ctx.Err() == nil {
		return err
	}
	log.Println("sdrd exiting")
	return nil
}

func openTransport(group string, port uint16, peers, listen string, reg *obs.Registry) (*transport.UDPTransport, error) {
	if peers != "" {
		var addrs []netip.AddrPort
		for _, p := range strings.Split(peers, ",") {
			ap, err := netip.ParseAddrPort(strings.TrimSpace(p))
			if err != nil {
				return nil, fmt.Errorf("bad peer %q: %w", p, err)
			}
			addrs = append(addrs, ap)
		}
		tr, err := transport.NewUDP(transport.UDPConfig{Peers: addrs, ListenAddr: listen, Obs: reg})
		if err != nil {
			return nil, err
		}
		log.Printf("unicast fan-out on %s to %v", tr.LocalAddr(), addrs)
		return tr, nil
	}
	g, err := netip.ParseAddr(group)
	if err != nil {
		return nil, fmt.Errorf("bad group %q: %w", group, err)
	}
	tr, err := transport.NewUDP(transport.UDPConfig{Group: g, Port: port, Obs: reg})
	if err != nil {
		return nil, err
	}
	log.Printf("joined %s:%d", g, port)
	return tr, nil
}

// deriveSeed gives each daemon its own RNG stream by default. Two daemons
// started with identical flags used to share the fixed fallback seed, so
// a symmetric clash (both announce the same address across a healed
// partition) made both sides draw the same next address and mirror-move
// indefinitely. Hashing origin and PID makes colocated and peer daemons
// diverge without operator action; -seed pins the stream for replayable
// runs.
func deriveSeed(origin string, pid int) uint64 {
	h := fnv.New64a()
	_, _ = fmt.Fprintf(h, "%s|%d", origin, pid)
	s := h.Sum64()
	if s == 0 {
		return 1 // zero means "use the built-in default", which is exactly the shared stream we are avoiding
	}
	return s
}

// startDebugServer serves the observability surface on addr: Prometheus
// text at /metrics, the protocol event ring at /trace, liveness and
// readiness probes at /healthz and /readyz, the live session table at
// /sessions, expvar at /debug/vars and the pprof family under
// /debug/pprof/. It is opt-in via -http-debug and binds before
// returning, so a bad address fails startup instead of logging from a
// goroutine after the daemon looks healthy.
func startDebugServer(addr string, reg *obs.Registry, trace *obs.Trace, dir *sessiondir.Directory, ready, storageOK *atomic.Bool) (shutdown func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("http-debug: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			log.Printf("http-debug: metrics write: %v", err) // scraper hung up mid-response
		}
	})
	// Liveness: the process is serving HTTP, so it is alive. Readiness is
	// the stronger claim — socket bound, cache restore complete, initial
	// announcement out, checkpoints landing — and drops again while
	// draining for shutdown or after persistent storage failure (the
	// daemon still serves; it just stops claiming durability).
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = fmt.Fprintln(w, "ok") // probe hung up; nothing to report to
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = fmt.Fprintln(w, "starting") // probe hung up; nothing to report to
			return
		}
		if !storageOK.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = fmt.Fprintln(w, "storage-degraded") // probe hung up; nothing to report to
			return
		}
		_, _ = fmt.Fprintln(w, "ready") // probe hung up; nothing to report to
	})
	// The live session table, one line per session: key, group, TTL, then
	// the free-form name last so embedded separators cannot shift fields.
	mux.HandleFunc("/sessions", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, s := range dir.Sessions() {
			_, _ = fmt.Fprintf(w, "%s\t%s\t%d\t%s\n", s.Key(), s.Group, s.TTL, s.Name) // scraper hung up mid-table
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := trace.WriteText(w); err != nil {
			log.Printf("http-debug: trace write: %v", err)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("http-debug: %v", err)
		}
	}()
	log.Printf("http-debug listening on http://%s/metrics", ln.Addr())
	return func() { _ = srv.Close() }, nil
}
