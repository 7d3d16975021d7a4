//go:build linux

//arest:allow nowallclock RawConn is the live raw-socket prober: RTTs and receive deadlines are genuine wall-clock measurements of the real Internet, outside the simulator's determinism contract (DESIGN.md §7 covers the netsim backend; this backend is inherently nondeterministic)

//arest:allow noerrdrop the discarded errors here are syscall.Close on teardown and error-unwind paths: the descriptors are being abandoned either way and Close has no recovery action; every measurement-carrying syscall error is propagated

package probe

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"syscall"
	"time"

	"arest/internal/pkt"
)

// RawConn implements Conn over Linux raw sockets, turning the Tracer into a
// real Internet prober: probes are sent verbatim (IP_HDRINCL semantics of
// IPPROTO_RAW) and ICMP replies are received with their full IPv4 header,
// exactly the byte stream the simulator backend emulates. Requires
// CAP_NET_RAW (or root).
//
// Exchange matches replies to probes by the quoted original datagram
// (source/destination/IP-ID for errors, identifier/sequence for echo
// replies), discarding unrelated ICMP traffic that shares the socket.
type RawConn struct {
	sendFD  int
	recvFD  int
	Timeout time.Duration
}

// ErrRawSocket wraps raw-socket setup failures (typically permission).
var ErrRawSocket = errors.New("probe: raw socket unavailable")

// NewRawConn opens the send (IPPROTO_RAW) and receive (IPPROTO_ICMP)
// sockets. The caller must Close it.
func NewRawConn(timeout time.Duration) (*RawConn, error) {
	send, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_RAW, syscall.IPPROTO_RAW)
	if err != nil {
		return nil, fmt.Errorf("%w: send socket: %v", ErrRawSocket, err)
	}
	recv, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_RAW, syscall.IPPROTO_ICMP)
	if err != nil {
		syscall.Close(send)
		return nil, fmt.Errorf("%w: recv socket: %v", ErrRawSocket, err)
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &RawConn{sendFD: send, recvFD: recv, Timeout: timeout}, nil
}

// Close releases both sockets.
func (c *RawConn) Close() error {
	err1 := syscall.Close(c.sendFD)
	err2 := syscall.Close(c.recvFD)
	if err1 != nil {
		return err1
	}
	return err2
}

// recvSlice bounds a single blocking Recvfrom so the receive loop re-checks
// ctx at least this often: a cancellation lands within one slice even while
// unrelated ICMP traffic keeps the socket busy.
const recvSlice = 100 * time.Millisecond

// Exchange implements Conn. The receive wait is sliced: each Recvfrom
// blocks at most recvSlice before the loop re-checks both the overall
// Timeout deadline and ctx, so a cancelled context aborts a quiet (or
// noisy-but-unmatched) wait promptly instead of riding out the full
// timeout.
func (c *RawConn) Exchange(ctx context.Context, src netip.Addr, wire []byte) ([]byte, float64, error) {
	var probe pkt.IPv4
	if err := pkt.UnmarshalIPv4Into(&probe, wire); err != nil {
		return nil, 0, fmt.Errorf("probe: malformed probe: %w", err)
	}
	dst := probe.Dst.As4()
	sa := &syscall.SockaddrInet4{Addr: dst}
	start := time.Now()
	if err := syscall.Sendto(c.sendFD, wire, 0, sa); err != nil {
		return nil, 0, fmt.Errorf("probe: sendto: %w", err)
	}
	deadline := start.Add(c.Timeout)
	buf := make([]byte, 65536)
	for {
		if ctx.Err() != nil {
			return nil, 0, context.Cause(ctx)
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, 0, nil // timeout: hop shows "*"
		}
		if remain > recvSlice {
			remain = recvSlice
		}
		tv := syscall.NsecToTimeval(remain.Nanoseconds())
		if err := syscall.SetsockoptTimeval(c.recvFD, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv); err != nil {
			return nil, 0, fmt.Errorf("probe: rcvtimeo: %w", err)
		}
		n, _, err := syscall.Recvfrom(c.recvFD, buf, 0)
		if err != nil {
			if errno, ok := err.(syscall.Errno); ok &&
				(errno == syscall.EAGAIN || errno == syscall.EWOULDBLOCK || errno == syscall.EINTR) {
				continue // slice expired: loop re-checks ctx and the deadline
			}
			return nil, 0, fmt.Errorf("probe: recvfrom: %w", err)
		}
		if matchesProbe(&probe, buf[:n]) {
			reply := append([]byte(nil), buf[:n]...)
			return reply, float64(time.Since(start)) / float64(time.Millisecond), nil
		}
		// Unrelated ICMP traffic: keep listening until the deadline.
	}
}

// matchesProbe decides whether a received ICMP packet answers the probe.
func matchesProbe(probe *pkt.IPv4, reply []byte) bool {
	var rip pkt.IPv4
	var m pkt.ICMP
	if pkt.UnmarshalIPv4Into(&rip, reply) != nil || rip.Protocol != pkt.ProtoICMP ||
		pkt.UnmarshalICMPInto(&m, rip.Payload) != nil {
		return false
	}
	switch {
	case m.IsError():
		// Some routers quote fewer than the 20 bytes of a header; such a
		// quote matches nothing.
		var q pkt.IPv4
		if pkt.UnmarshalIPv4QuotedInto(&q, m.Body) != nil {
			return false
		}
		return q.Src == probe.Src && q.Dst == probe.Dst && q.ID == probe.ID
	case m.Type == pkt.ICMPEchoReply && probe.Protocol == pkt.ProtoICMP:
		var req pkt.ICMP
		if pkt.UnmarshalICMPInto(&req, probe.Payload) != nil {
			return false
		}
		return m.ID == req.ID && m.Seq == req.Seq
	default:
		return false
	}
}

// NewRawTracer is a convenience constructor wiring a RawConn into a Tracer
// probing from the given local address. It returns ErrRawSocket without
// privileges; callers (and tests) should degrade gracefully.
func NewRawTracer(local netip.Addr, timeout time.Duration) (*Tracer, *RawConn, error) {
	conn, err := NewRawConn(timeout)
	if err != nil {
		return nil, nil, err
	}
	t := NewTracer(conn, local)
	t.Reveal = false // revelation re-probes aggressively; opt in explicitly
	return t, conn, nil
}

// rawAvailable reports whether raw sockets can be opened (used by tests).
func rawAvailable() bool {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_RAW, syscall.IPPROTO_ICMP)
	if err != nil {
		return false
	}
	syscall.Close(fd)
	return true
}
