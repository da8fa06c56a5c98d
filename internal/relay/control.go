package relay

import (
	"fmt"
	"net"
	"net/netip"
	"sort"
	"strconv"
	"strings"

	"sessiondir/internal/fault"
)

// The relay control protocol: one UDP datagram per command, one reply
// datagram per command, plain text. It exists so an orchestrator — or an
// operator with netcat — can steer faults on a running relay without
// sharing its process:
//
//	ping                               → OK pong
//	partition 0,1|2,3                  → OK partitioned groups=2
//	heal                               → OK healed
//	link <i> <j> k=v ...               → OK link ...      (i or j may be *)
//	   keys: loss, dup, corrupt ∈ [0,1]; delay=<min>:<max> (Go durations)
//	stats                              → OK forwarded=... dropped=... ...
//
// Anything unparseable gets "ERR <reason>". Commands are idempotent and
// the protocol is intentionally stateless, so a lost reply is repaired
// by resending the command.

type controlServer struct {
	conn *net.UDPConn
}

// ServeControl binds the control socket and serves commands until the
// relay closes. It returns the address clients should send commands to.
func (r *Relay) ServeControl() (netip.AddrPort, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("relay: control socket: %w", err)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		_ = conn.Close() // relay gone before we could serve
		return netip.AddrPort{}, fmt.Errorf("relay: closed")
	}
	if r.ctl != nil {
		prev := r.ctl.conn.LocalAddr().(*net.UDPAddr).AddrPort()
		r.mu.Unlock()
		_ = conn.Close() // already serving; keep the first socket
		return prev, nil
	}
	r.ctl = &controlServer{conn: conn}
	r.mu.Unlock()
	r.wg.Add(1)
	go r.controlLoop(conn)
	return conn.LocalAddr().(*net.UDPAddr).AddrPort(), nil
}

func (r *Relay) controlLoop(conn *net.UDPConn) {
	defer r.wg.Done()
	buf := make([]byte, 4096)
	for {
		n, from, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // closed: the relay is shutting down
		}
		reply := r.handleCommand(strings.TrimSpace(string(buf[:n])))
		if _, err := conn.WriteToUDPAddrPort([]byte(reply), from); err != nil {
			continue // client gone; the protocol is resend-to-repair anyway
		}
	}
}

// handleCommand executes one control command and renders its reply. It
// is exported to the socket loop only; tests drive it directly.
func (r *Relay) handleCommand(line string) string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "ERR empty command"
	}
	switch strings.ToLower(fields[0]) {
	case "ping":
		return "OK pong"
	case "heal":
		r.Heal()
		return "OK healed"
	case "partition":
		if len(fields) != 2 {
			return "ERR usage: partition <g0>,<g1>|<g2>,..."
		}
		groups, err := parseGroups(fields[1])
		if err != nil {
			return "ERR " + err.Error()
		}
		r.Partition(groups...)
		return fmt.Sprintf("OK partitioned groups=%d", len(groups))
	case "link":
		if len(fields) < 3 {
			return "ERR usage: link <from|*> <to|*> [loss=f] [dup=f] [corrupt=f] [delay=min:max]"
		}
		from, err := parseEndpoint(fields[1])
		if err != nil {
			return "ERR " + err.Error()
		}
		to, err := parseEndpoint(fields[2])
		if err != nil {
			return "ERR " + err.Error()
		}
		p, err := fault.ParseProfile(fields[3:])
		if err != nil {
			return "ERR " + err.Error()
		}
		r.SetLink(from, to, p)
		return fmt.Sprintf("OK link from=%s to=%s loss=%g dup=%g corrupt=%g delay=%s:%s",
			fields[1], fields[2], p.Loss, p.Duplicate, p.Corrupt, p.DelayMin, p.DelayMax)
	case "stats":
		s := r.Stats()
		return fmt.Sprintf("OK forwarded=%d dropped=%d duplicated=%d corrupted=%d delayed=%d partition_drops=%d pending=%d partitions_active=%d",
			s.Forwarded, s.Dropped, s.Duplicated, s.Corrupted, s.Delayed, s.PartitionDrops, s.Pending, r.SeveredLinks())
	default:
		return "ERR unknown command " + strconv.Quote(fields[0])
	}
}

// parseGroups parses "0,1|2,3" into [[0,1],[2,3]]. Indices may not
// repeat across groups.
func parseGroups(s string) ([][]int, error) {
	var groups [][]int
	seen := map[int]bool{}
	for _, part := range strings.Split(s, "|") {
		var g []int
		for _, tok := range strings.Split(part, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			idx, err := strconv.Atoi(tok)
			if err != nil || idx < 0 {
				return nil, fmt.Errorf("bad index %q", tok)
			}
			if seen[idx] {
				return nil, fmt.Errorf("index %d in two groups", idx)
			}
			seen[idx] = true
			g = append(g, idx)
		}
		if len(g) > 0 {
			sort.Ints(g)
			groups = append(groups, g)
		}
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("no groups")
	}
	return groups, nil
}

func parseEndpoint(tok string) (int, error) {
	if tok == "*" {
		return -1, nil
	}
	idx, err := strconv.Atoi(tok)
	if err != nil || idx < 0 {
		return 0, fmt.Errorf("bad endpoint %q (index or *)", tok)
	}
	return idx, nil
}
