// The pooled per-Send scratch: allocation here multiplies by every probe
// sent, which the Send allocation budgets (DESIGN.md §11) guard.
package netsim

import (
	"sync"

	"arest/internal/mpls"
	"arest/internal/pkt"
)

// sendScratch bundles every piece of transient state one Send needs:
// the decoded probe, the forwarding context (with the destination record
// resolved once per Send) and frame, the working label stacks, and the
// byte buffers the per-hop quote/reply construction appends into.
// Pooling it makes the wire path (near-)zero-allocation: the only
// per-Send heap traffic left is the reply wire handed to the caller
// (Delivery itself is returned by value).
//
// The pool sits OUTSIDE the determinism contract on purpose (DESIGN.md
// §11): which scratch a Send draws depends on scheduling, but every
// field is fully overwritten before use — decoders assign whole structs,
// append-style encoders write every byte of the regions they claim, and
// stack/extension buffers are always resliced to [:0] first — so probe
// and reply bytes are a pure function of the probe and the network, never
// of pool history. The equivalence and fuzz tests in this package pin
// that property.
type sendScratch struct {
	ctx   sendCtx
	frame frame
	ip    pkt.IPv4 // decoded probe (payload aliases the caller's wire)

	received mpls.Stack // per-hop copy of the stack as received (RFC 4950 quote)
	stackBuf mpls.Stack // ingress push construction
	segBuf   [1]Segment // default single-segment list

	qip     pkt.IPv4 // quoted original datagram under reconstruction
	quote   []byte   // serialized quoted datagram
	extBuf  []byte   // serialized RFC 4950 label-stack object payload
	extObjs [1]pkt.ExtensionObject
	msg     pkt.ICMP // reply ICMP message under construction
	echo    pkt.ICMP // decoded echo request
	payload []byte   // serialized reply ICMP message
	out     pkt.IPv4 // reply IP packet under construction
}

var sendScratchPool = sync.Pool{New: func() any { return new(sendScratch) }}
