//go:build unix

package proxy

import (
	"net"
	"syscall"
)

// socketFD returns nc's socket descriptor for idleOpen, or -1 when nc has
// none.
func socketFD(nc net.Conn) int {
	fd := -1
	if sc, ok := nc.(syscall.Conn); ok {
		if rc, err := sc.SyscallConn(); err == nil {
			_ = rc.Control(func(s uintptr) { fd = int(s) })
		}
	}
	return fd
}

// idleOpen reports whether an idle upstream connection can carry a request:
// the backend has neither closed it nor written on it while it waited. It is
// one non-blocking peek into scratch, so it consumes nothing; a connection
// with a byte to read (EOF, a reset, a stray 408) is not reused.
func idleOpen(fd int, scratch []byte) bool {
	if fd < 0 {
		return false
	}
	_, _, err := syscall.Recvfrom(fd, scratch[:1], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	return err == syscall.EAGAIN
}
