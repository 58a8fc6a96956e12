//go:build !unix

package proxy

import "net"

func socketFD(net.Conn) int { return -1 }

// idleOpen cannot look at the socket on this platform, so an idle upstream
// connection is never trusted with a request: every request dials.
func idleOpen(int, []byte) bool { return false }
