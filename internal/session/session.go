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
	// The key is built once per received packet: append into a stack
	// buffer so the string conversion is the only allocation.
	var buf [64]byte
	return string(d.AppendKey(buf[:0]))
}

// AppendKey appends Key() to b, for callers that only compare keys and
// want no string.
func (d *Description) AppendKey(b []byte) []byte {
	b = appendAddr(b, d.Origin)
	b = append(b, '/')
	return strconv.AppendUint(b, d.ID, 10)
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

// Active reports whether the session is within its advertised time bounds.
func (d *Description) Active(now time.Time) bool {
	if !d.Start.IsZero() && now.Before(d.Start) {
		return false
	}
	if !d.Stop.IsZero() && now.After(d.Stop) {
		return false
	}
	return true
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
