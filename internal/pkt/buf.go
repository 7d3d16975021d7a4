// The pkt encoders and decoders are the innermost wire path — every
// probe and reply round-trips through them — and the wire-path allocation
// budgets (DESIGN.md §11) hold them at zero allocations.
package pkt

// grow extends dst by n bytes and returns the extended slice plus the
// offset of the new region. The new region is NOT zeroed when dst already
// has capacity — append-style encoders must write every byte they claim,
// which is what lets callers recycle scratch buffers (b[:0]) without the
// contents of one packet leaking into the next.
func grow(dst []byte, n int) ([]byte, int) {
	off := len(dst)
	if cap(dst) >= off+n {
		return dst[:off+n], off
	}
	out := make([]byte, off+n)
	copy(out, dst)
	return out, off
}
