//go:build linux && amd64

package transport

// sendmmsg postdates the frozen stdlib syscall tables on some
// architectures, so its number is defined here per GOARCH (x86-64 table:
// 307). Architectures without an entry fall back to one sendto per
// datagram (sysnum_sendmmsg_fallback_linux.go); receive-side batching is
// unaffected.
const (
	haveSendmmsg         = true
	sysSENDMMSG  uintptr = 307
)
