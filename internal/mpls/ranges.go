package mpls

import "fmt"

// Vendor identifies a router hardware vendor, as used both by the network
// simulator (router profiles) and by the fingerprinting subsystem.
type Vendor int

// Known vendors. VendorUnknown means fingerprinting failed or was not
// attempted; VendorCiscoHuawei is the ambiguity class produced by TTL-based
// fingerprinting, which cannot distinguish Cisco from Huawei because they
// share the same initial-TTL signature (paper Sec. 5).
const (
	VendorUnknown Vendor = iota
	VendorCisco
	VendorJuniper
	VendorHuawei
	VendorNokia
	VendorArista
	VendorMikroTik
	VendorLinux
	VendorCiscoHuawei // TTL-fingerprint ambiguity class
)

var vendorNames = map[Vendor]string{
	VendorUnknown:     "unknown",
	VendorCisco:       "Cisco",
	VendorJuniper:     "Juniper",
	VendorHuawei:      "Huawei",
	VendorNokia:       "Nokia",
	VendorArista:      "Arista",
	VendorMikroTik:    "MikroTik",
	VendorLinux:       "Linux",
	VendorCiscoHuawei: "Cisco/Huawei",
}

// String returns the vendor's display name.
func (v Vendor) String() string {
	if s, ok := vendorNames[v]; ok {
		return s
	}
	return fmt.Sprintf("Vendor(%d)", int(v))
}

// LabelRange is an inclusive range of 20-bit label values.
type LabelRange struct {
	Lo, Hi uint32
}

// Contains reports whether label lies within the range.
func (r LabelRange) Contains(label uint32) bool { return label >= r.Lo && label <= r.Hi }

// Size returns the number of labels in the range. The zero value is the
// empty range (used for vendors with no SRLB).
func (r LabelRange) Size() uint32 {
	if r.Hi < r.Lo || r == (LabelRange{}) {
		return 0
	}
	return r.Hi - r.Lo + 1
}

// Overlap returns the intersection of two ranges and whether it is non-empty.
func (r LabelRange) Overlap(o LabelRange) (LabelRange, bool) {
	lo, hi := r.Lo, r.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	if hi < lo {
		return LabelRange{}, false
	}
	return LabelRange{lo, hi}, true
}

// String renders the range as "[lo,hi]".
func (r LabelRange) String() string { return fmt.Sprintf("[%d,%d]", r.Lo, r.Hi) }

// Default vendor SR label blocks, after Table 1 of the paper.
//
// Cisco default SRGB 16,000-23,999 and SRLB 15,000-15,999; Huawei default
// SRGB 16,000-47,999 and base SRLB >=48,000 (user-defined size; we model the
// common 48,000-48,999 default); Arista default SRGB 900,000-965,535 and
// SRLB 100,000-116,383. Juniper has no separate SRLB: adjacency SIDs come
// from the dynamic label pool; its default SRGB on modern Junos is
// 16,000-23,999-compatible only when configured, so we model the commonly
// documented 16,000-23,999 block used in mixed deployments.
var (
	CiscoSRGB  = LabelRange{16000, 23999}
	CiscoSRLB  = LabelRange{15000, 15999}
	HuaweiSRGB = LabelRange{16000, 47999}
	HuaweiSRLB = LabelRange{48000, 48999}
	AristaSRGB = LabelRange{900000, 965535}
	AristaSRLB = LabelRange{100000, 116383}

	// JuniperSRGB models a configured Junos SRGB; Juniper requires the
	// operator to set one, and interop guides commonly align it with
	// Cisco's default block.
	JuniperSRGB = LabelRange{16000, 23999}

	// NokiaSRGB models the commonly configured SR OS block.
	NokiaSRGB = LabelRange{20000, 27999}

	// CiscoHuaweiSRGBIntersection is the overlap used when TTL-based
	// fingerprinting cannot tell Cisco from Huawei (paper Sec. 5):
	// flags are raised only for labels in {16,000; 23,999}.
	CiscoHuaweiSRGBIntersection = LabelRange{16000, 23999}
)

// SRBlocks returns the default SRGB and SRLB ranges for a vendor, with ok
// reporting whether the vendor has recognized SR ranges at all. The SRLB
// result may be the zero range when the vendor allocates adjacency SIDs
// from the dynamic pool (Juniper).
func SRBlocks(v Vendor) (srgb, srlb LabelRange, ok bool) {
	switch v {
	case VendorCisco:
		return CiscoSRGB, CiscoSRLB, true
	case VendorHuawei:
		return HuaweiSRGB, HuaweiSRLB, true
	case VendorArista:
		return AristaSRGB, AristaSRLB, true
	case VendorJuniper:
		return JuniperSRGB, LabelRange{}, true
	case VendorNokia:
		return NokiaSRGB, LabelRange{}, true
	case VendorCiscoHuawei:
		return CiscoHuaweiSRGBIntersection, LabelRange{}, true
	default:
		return LabelRange{}, LabelRange{}, false
	}
}

// InVendorSRRange reports whether label falls inside any recognized SR
// range (SRGB or SRLB) for the given fingerprinted vendor. This is the
// membership test behind the CVR, LSVR, and LVR flags.
func InVendorSRRange(v Vendor, label uint32) bool {
	srgb, srlb, ok := SRBlocks(v)
	if !ok {
		return false
	}
	if srgb.Contains(label) {
		return true
	}
	return srlb.Size() > 0 && srlb.Contains(label)
}

// DynamicPool returns the dynamic (non-SR, non-reserved) label allocation
// pool modeled for a vendor. The Cisco pool spans 24,000-1,056,574 — i.e.
// 1,032,575 possible labels, matching the false-positive argument in
// Sec. 4.1 of the paper.
func DynamicPool(v Vendor) LabelRange {
	switch v {
	case VendorCisco:
		return LabelRange{24000, 1056574}
	case VendorHuawei:
		return LabelRange{49000, 1048575}
	case VendorArista:
		return LabelRange{116384, 899999}
	case VendorJuniper:
		return LabelRange{299776, 1048575} // Junos dynamic range
	case VendorNokia:
		return LabelRange{32768, 1048575}
	default:
		return LabelRange{16, 1048575}
	}
}
