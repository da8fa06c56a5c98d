// Package session models multicast session descriptions: the metadata a
// session directory advertises (a subset of SDP sufficient for sdr-style
// session announcements) plus lifecycle bookkeeping.
package session

import (
	"fmt"
	"net/netip"
	"strconv"
	"time"

	"sessiondir/internal/mcast"
)

// Media is one media stream of a session (an SDP m= line).
type Media struct {
	Type   string // "audio", "video", "whiteboard", ...
	Port   uint16
	Proto  string // "RTP/AVP" typically
	Format string // payload format, e.g. "0" (PCMU) or "31" (H.261)
	// Attributes are the stream's a= lines ("ptime:40", "recvonly", ...).
	Attributes []string
}

// Description is the announced description of a multicast session.
type Description struct {
	// ID is the originator-scoped session id (SDP o= field, sess-id).
	ID uint64
	// Version increments whenever the description changes (o= sess-version).
	Version uint64
	// Origin is the announcing host.
	Origin netip.Addr
	// OriginUser is the announcing user (o= username, "-" if unknown).
	OriginUser string
	// Name is the human-readable session name (s= line).
	Name string
	// Info is an optional free-text description (i= line).
	Info string
	// Group is the session's multicast address (c= line).
	Group netip.Addr
	// TTL is the session scope (c= line TTL suffix).
	TTL mcast.TTL
	// Start and Stop bound the session's advertised lifetime (t= line).
	Start, Stop time.Time
	// BandwidthKbps is the advertised session bandwidth (b=AS: line);
	// 0 means unspecified.
	BandwidthKbps int
	// Attributes are session-level a= lines (sdr used e.g. "tool:sdr").
	Attributes []string
	// Media lists the session's media streams.
	Media []Media
}

// Key returns the stable identity of the session: origin + id. Address
// changes (clash resolution) do not change the key; description edits
// bump Version instead.
func (d *Description) Key() string {
	var buf [64]byte
	return string(appendKey(buf[:0], d.Origin, d.ID))
}

// Summary is what the protocol reads of the description.
func (d *Description) Summary() Summary {
	return Summary{Origin: d.Origin, ID: d.ID, Version: d.Version, Group: d.Group, TTL: d.TTL}
}

// Summary is what the directory's protocol reads of a heard session — its
// identity, version, address and scope — and nothing it only displays:
// the five fields a listener's cache, allocator and clash tracker use.
// ScanSDP reads one from a payload without building the description.
type Summary struct {
	Origin  netip.Addr
	ID      uint64
	Version uint64
	Group   netip.Addr
	TTL     mcast.TTL
}

// Key is the key of the description summarised: Description.Key.
func (s *Summary) Key() string {
	var buf [64]byte
	return string(appendKey(buf[:0], s.Origin, s.ID))
}

// appendKey appends the key of session id from origin to b. A key is
// built once per received packet, in a stack buffer, so the string
// conversion is the only allocation — none where Key is inlined and the
// key does not escape.
func appendKey(b []byte, origin netip.Addr, id uint64) []byte {
	b = append(appendAddr(b, origin), '/')
	return strconv.AppendUint(b, id, 10)
}

// appendAddr appends a.String(): AppendTo, except that it writes nothing
// for the zero Addr where String says "invalid IP".
func appendAddr(b []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(b, "invalid IP"...)
	}
	return a.AppendTo(b)
}

// Validate checks the description is announceable.
func (d *Description) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("session: missing name")
	}
	if !d.Origin.IsValid() {
		return fmt.Errorf("session %q: missing origin", d.Name)
	}
	if !d.Group.IsValid() || !mcast.IsMulticast(d.Group) {
		return fmt.Errorf("session %q: group %s is not an IPv4 multicast address", d.Name, d.Group)
	}
	if !d.Stop.IsZero() && !d.Start.IsZero() && d.Stop.Before(d.Start) {
		return fmt.Errorf("session %q: stop before start", d.Name)
	}
	for i, m := range d.Media {
		if m.Type == "" {
			return fmt.Errorf("session %q: media %d missing type", d.Name, i)
		}
		if m.Port == 0 {
			return fmt.Errorf("session %q: media %d missing port", d.Name, i)
		}
	}
	return nil
}

// WithGroup returns a copy with a new group address and bumped version —
// the clash-resolution "modified address" re-announcement.
func (d *Description) WithGroup(group netip.Addr) *Description {
	c := *d
	c.Attributes = append([]string(nil), d.Attributes...)
	c.Media = make([]Media, len(d.Media))
	for i, m := range d.Media {
		c.Media[i] = m
		c.Media[i].Attributes = append([]string(nil), m.Attributes...)
	}
	c.Group = group
	c.Version++
	return &c
}
