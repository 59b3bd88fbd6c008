//go:build !linux

package tcpnet

import "syscall"

// platformPoller reports whether this build has a raw-fd poller.
const platformPoller = false

// newPollerSet builds the poller pool on platforms without a raw-fd
// readiness facility wired up: every poller is the portable scan loop.
func newPollerSet(s *Server, n int) []poller {
	return newPortableSet(s, n)
}

// rawFD reports no raw-fd access off Linux, steering every connection to
// the portable poller.
func rawFD(rc syscall.RawConn) (int, bool) { return -1, false }

// sysWriteWait is unreachable off Linux for the same reason sysWriteStep
// is.
func sysWriteWait(rc syscall.RawConn, buf []byte) (int, error) {
	panic("tcpnet: sysWriteWait without platform poller")
}

// sysWriteStep is unreachable off Linux: connections never carry a raw
// fd there, so writeStep always takes the portable path.
func sysWriteStep(rc syscall.RawConn, buf []byte) (int, bool, error) {
	panic("tcpnet: sysWriteStep without platform poller")
}
