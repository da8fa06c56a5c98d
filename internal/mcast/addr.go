// Package mcast models IPv4 multicast addresses, address spaces, and TTL
// scoping as used on the late-1990s Mbone. It provides the vocabulary shared
// by the allocators, the session directory, and the simulators: an abstract
// contiguous address space with an index form (what the allocation
// algorithms reason about) and concrete dotted-quad group addresses (what
// goes on the wire).
package mcast

import (
	"fmt"
	"net/netip"
)

// Addr is an index into an AddrSpace: allocation algorithms operate on
// dense integer indices and convert to concrete group addresses only at the
// wire. The zero Addr is the first address of its space.
type Addr uint32

// AddrSpace is a contiguous range of multicast group addresses available
// for dynamic allocation, such as the IANA "SDP/SAP" dynamic block the
// paper's sdr used (224.2.128.0 – 224.2.255.255). Base is the first group
// address; Size is the number of allocatable addresses.
type AddrSpace struct {
	Base netip.Addr
	Size uint32
}

// SAPDynamicSpace returns the 32768-address dynamic block used by sdr
// (224.2.128.0/17's upper half: 224.2.128.0 – 224.2.255.255).
func SAPDynamicSpace() AddrSpace {
	return AddrSpace{Base: netip.AddrFrom4([4]byte{224, 2, 128, 0}), Size: 32768}
}

// AdminScopedSpace returns the IPv4 administratively scoped block
// 239.255.0.0/16 (the "IPv4 local scope" commonly used for site sessions).
func AdminScopedSpace(size uint32) AddrSpace { //mclint:unused pinned by benchmark/gen.go
	if size == 0 || size > 1<<16 {
		size = 1 << 16
	}
	return AddrSpace{Base: netip.AddrFrom4([4]byte{239, 255, 0, 0}), Size: size}
}

// SyntheticSpace returns an abstract space of the given size rooted in the
// SSM-test block. Simulations that only care about indices use this.
func SyntheticSpace(size uint32) AddrSpace {
	return AddrSpace{Base: netip.AddrFrom4([4]byte{232, 1, 0, 0}), Size: size}
}

// Contains reports whether idx is inside the space.
func (s AddrSpace) Contains(idx Addr) bool { return uint32(idx) < s.Size }

// Group converts an index to its concrete multicast group address.
// It panics if idx is outside the space: callers must allocate indices
// through an Allocator, which never yields out-of-range values.
func (s AddrSpace) Group(idx Addr) netip.Addr {
	if !s.Contains(idx) {
		panic(fmt.Sprintf("mcast: address index %d outside space of %d", idx, s.Size))
	}
	base := s.Base.As4()
	v := uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8 | uint32(base[3])
	v += uint32(idx)
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// Index converts a concrete group address back to its index.
// The boolean is false if the address is not inside the space.
func (s AddrSpace) Index(group netip.Addr) (Addr, bool) {
	if !group.Is4() || !s.Base.Is4() {
		return 0, false
	}
	g, b := group.As4(), s.Base.As4()
	gv := uint32(g[0])<<24 | uint32(g[1])<<16 | uint32(g[2])<<8 | uint32(g[3])
	bv := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	if gv < bv || gv-bv >= s.Size {
		return 0, false
	}
	return Addr(gv - bv), true
}

// IsMulticast reports whether a is an IPv4 multicast (class D) address.
func IsMulticast(a netip.Addr) bool {
	if !a.Is4() {
		return false
	}
	b := a.As4()
	return b[0] >= 224 && b[0] <= 239
}
