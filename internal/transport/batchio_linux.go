//go:build linux

package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// Linux batchConn: recvmmsg/sendmmsg through the runtime netpoller.
//
// The syscalls are issued non-blocking (MSG_DONTWAIT) inside
// RawConn.Read/Write callbacks; returning false on EAGAIN parks the
// goroutine in the netpoller until the socket is ready, so deadlines and
// Close behave exactly as they do for ReadFromUDP — no OS thread is
// pinned while waiting. One wakeup then retires every queued datagram in
// a single kernel crossing instead of one each.

// mmsghdr mirrors the kernel's struct mmsghdr. Go's alignment rules pad
// it to the kernel's layout on both 32- and 64-bit linux (msg_len sits
// right after the msghdr; trailing padding matches the kernel's int
// alignment), so one definition serves every GOARCH.
type mmsghdr struct {
	Hdr syscall.Msghdr
	Len uint32 // bytes received/sent for this message
}

// mmsgConn implements batchConn over one AF_INET UDP socket.
//
// The receive scratch (hdrs/iovs/names) is reused across ReadBatch calls
// and owned by the read-loop goroutine; the recv closure is built once so
// the steady-state receive path performs zero heap allocations. Transmit
// scratch is per-call: sends are comparatively rare and may race with the
// read loop, so they must not share its arrays.
type mmsgConn struct {
	conn *net.UDPConn // kept for the no-sendmmsg per-arch fallback
	rc   syscall.RawConn

	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet4

	recvFn func(fd uintptr) bool // closure built once; state below
	rcount int                   // in: slots available this call
	rn     int                   // out: datagrams received
	rerrno syscall.Errno         // out: recvmmsg failure
}

func newBatchConn(conn *net.UDPConn) batchConn {
	rc, err := conn.SyscallConn()
	if err != nil {
		return &singleConn{conn: conn} // degraded socket; portable path still works
	}
	c := &mmsgConn{conn: conn, rc: rc}
	c.recvFn = func(fd uintptr) bool {
		n, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG,
			fd,
			uintptr(unsafe.Pointer(&c.hdrs[0])),
			uintptr(c.rcount),
			uintptr(syscall.MSG_DONTWAIT),
			0, 0)
		if errno == syscall.EAGAIN {
			return false // park in the netpoller until readable
		}
		c.rn, c.rerrno = int(n), errno
		return true
	}
	return c
}

func (c *mmsgConn) ReadBatch(slots []rxSlot) (int, error) {
	if len(slots) > len(c.hdrs) {
		c.hdrs = make([]mmsghdr, len(slots))
		c.iovs = make([]syscall.Iovec, len(slots))
		c.names = make([]syscall.RawSockaddrInet4, len(slots))
	}
	// Rebuild the headers every call: the kernel overwrites Namelen/Len
	// in place, and a caller may pass a different ring.
	for i := range slots {
		b := slots[i].buf
		c.iovs[i].Base = &b[0]
		c.iovs[i].SetLen(len(b))
		c.hdrs[i] = mmsghdr{Hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&c.names[i])),
			Namelen: syscall.SizeofSockaddrInet4,
			Iov:     &c.iovs[i],
			Iovlen:  1, // untyped constant: fits Iovlen's per-arch width
		}}
	}
	c.rcount = len(slots)
	if err := c.rc.Read(c.recvFn); err != nil {
		return 0, err
	}
	if c.rerrno != 0 {
		return 0, os.NewSyscallError("recvmmsg", c.rerrno)
	}
	for i := 0; i < c.rn; i++ {
		slots[i].n = int(c.hdrs[i].Len)
		slots[i].from = inet4AddrPort(&c.names[i])
	}
	return c.rn, nil
}

func (c *mmsgConn) WriteBatch(pkts []txPkt) error {
	if len(pkts) == 0 {
		return nil
	}
	if !haveSendmmsg {
		return (&singleConn{conn: c.conn}).WriteBatch(pkts)
	}
	hdrs := make([]mmsghdr, len(pkts))
	iovs := make([]syscall.Iovec, len(pkts))
	names := make([]syscall.RawSockaddrInet4, len(pkts))
	for i, p := range pkts {
		if a := p.to.Addr().Unmap(); a.Is4() {
			names[i].Family = syscall.AF_INET
			names[i].Addr = a.As4()
		} else {
			// No IPv4 address to put here: the AF_INET socket refuses the
			// message with EAFNOSUPPORT, and the send loop skips it.
			names[i].Family = syscall.AF_INET6
		}
		putInet4Port(&names[i], p.to.Port())
		if len(p.data) > 0 {
			iovs[i].Base = &p.data[0]
			iovs[i].SetLen(len(p.data))
		}
		hdrs[i].Hdr = syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&names[i])),
			Namelen: syscall.SizeofSockaddrInet4,
			Iov:     &iovs[i],
			Iovlen:  1,
		}
	}
	// sendmmsg stops at the first message it cannot send: it returns how
	// many before it went out, or, when that message is the first, fails
	// with its errno. So an errno belongs to pkts[sent], which is recorded
	// and skipped, and the call is reissued for the rest — every packet is
	// tried, as singleConn tries them.
	var errs []error
	sent := 0
	for sent < len(hdrs) {
		var n int
		var opErr syscall.Errno
		err := c.rc.Write(func(fd uintptr) bool {
			r, _, errno := syscall.Syscall6(sysSENDMMSG,
				fd,
				uintptr(unsafe.Pointer(&hdrs[sent])),
				uintptr(len(hdrs)-sent),
				uintptr(syscall.MSG_DONTWAIT),
				0, 0)
			if errno == syscall.EAGAIN {
				return false // park until writable
			}
			n, opErr = int(r), errno
			return true
		})
		if err != nil {
			return errors.Join(append(errs, err)...) // deadline or closed socket: the rest would fail alike
		}
		if opErr != 0 {
			errs = append(errs, fmt.Errorf("transport: send to %s: %w", pkts[sent].to, os.NewSyscallError("sendmmsg", opErr)))
			sent++ // skip the packet the kernel refused
			continue
		}
		if n <= 0 {
			return errors.Join(append(errs, errors.New("transport: sendmmsg made no progress"))...)
		}
		sent += n
	}
	// The kernel only sees raw pointers into these from here on; keep the
	// backing arrays (and the payload slices) alive across the syscalls.
	runtime.KeepAlive(iovs)
	runtime.KeepAlive(names)
	runtime.KeepAlive(pkts)
	return errors.Join(errs...)
}

// inet4AddrPort converts a kernel-filled IPv4 sockaddr. The port is
// stored in network byte order; reading it byte-wise keeps the code
// endianness-agnostic.
func inet4AddrPort(sa *syscall.RawSockaddrInet4) netip.AddrPort {
	p := (*[2]byte)(unsafe.Pointer(&sa.Port))
	return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(p[0])<<8|uint16(p[1]))
}

// putInet4Port stores port into sa in network byte order.
func putInet4Port(sa *syscall.RawSockaddrInet4, port uint16) {
	p := (*[2]byte)(unsafe.Pointer(&sa.Port))
	p[0], p[1] = byte(port>>8), byte(port)
}
