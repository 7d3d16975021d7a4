// The side-record scanner: a forward cursor that decodes the four flat
// side records a replay reads hundreds of times per archive — VPRecord,
// FingerprintRecord, BorderRecord and SREnabledRecord — without
// encoding/json. It accepts them in the form json.Marshal writes, except
// for an address zone that json.Marshal escapes:
//
//	keys     in struct order, no whitespace, nothing after the closing }
//	strings  between quotes, with no \, no byte below 0x20 and no byte at
//	         or above 0x80 (the bytes json.Unmarshal would unescape or
//	         replace)
//	ints     -?(0|[1-9][0-9]*), fitting int
//	addrs    a string: empty for the zero netip.Addr, else what
//	         netip.ParseAddr accepts (as Addr.UnmarshalText does)
//	sources  "snmp" or "ttl"
//
// The scanner has no errors of its own. At the first byte outside that
// form it declines, and sideRecord hands the payload to decode
// (json.Unmarshal), so every payload yields the same record, or the same
// ErrCorrupt, as through encoding/json alone; FuzzSideRecords holds the
// scanner to that. A canonical record allocates only the address text it
// hands netip.ParseAddr. This file is on the allocation-budgeted wire
// path (DESIGN.md §11).
package archive

import (
	"net/netip"
	"strconv"

	"arest/internal/mpls"
)

// sideRecord decodes one side-record payload: with scan when the payload
// is in canonical form, else with decode.
func sideRecord[T any](body []byte, scan func([]byte) (T, bool)) (T, error) {
	if rec, ok := scan(body); ok {
		return rec, nil
	}
	var rec T // escapes through encoding/json; the scanned record stays off the heap
	err := decode(body, &rec)
	return rec, err
}

func scanVP(b []byte) (rec VPRecord, ok bool) {
	s := scanner{b: b}
	s.lit(`{"index":`)
	rec.Index = s.int()
	s.lit(`,"addr":`)
	rec.Addr = s.addr()
	s.lit(`,"traces":`)
	rec.Traces = s.int()
	return rec, s.end()
}

func scanFingerprint(b []byte) (rec FingerprintRecord, ok bool) {
	s := scanner{b: b}
	s.lit(`{"addr":`)
	rec.Addr = s.addr()
	s.lit(`,"vendor":`)
	rec.Vendor = mpls.Vendor(s.int())
	s.lit(`,"source":`)
	rec.Source = s.source()
	return rec, s.end()
}

func scanBorder(b []byte) (rec BorderRecord, ok bool) {
	s := scanner{b: b}
	s.lit(`{"addr":`)
	rec.Addr = s.addr()
	s.lit(`,"asn":`)
	rec.ASN = s.int()
	return rec, s.end()
}

func scanSREnabled(b []byte) (rec SREnabledRecord, ok bool) {
	s := scanner{b: b}
	s.lit(`{"addr":`)
	rec.Addr = s.addr()
	return rec, s.end()
}

// scanner is a forward-only cursor over one side-record payload. The first
// byte outside the canonical form sets bad, after which every read yields
// a zero value, so a scan checks once, at the end.
type scanner struct {
	b   []byte
	bad bool
}

// lit consumes want, byte for byte.
func (s *scanner) lit(want string) {
	if s.bad || len(s.b) < len(want) || string(s.b[:len(want)]) != want {
		s.bad = true
		return
	}
	s.b = s.b[len(want):]
}

// end consumes the closing brace and reports whether the whole payload was
// in canonical form.
func (s *scanner) end() bool {
	s.lit("}")
	return !s.bad && len(s.b) == 0
}

// int reads -?(0|[1-9][0-9]*) and declines a value outside int, as
// json.Unmarshal rejects it.
func (s *scanner) int() int {
	if s.bad {
		return 0
	}
	n := 0
	if len(s.b) > 0 && s.b[0] == '-' {
		n++
	}
	first := n
	for n < len(s.b) && '0' <= s.b[n] && s.b[n] <= '9' {
		n++
	}
	if n == first || s.b[first] == '0' && n > first+1 {
		s.bad = true
		return 0
	}
	v, err := strconv.ParseInt(string(s.b[:n]), 10, 0)
	if err != nil {
		s.bad = true
		return 0
	}
	s.b = s.b[n:]
	return int(v)
}

// str reads a quoted string that json.Unmarshal would take verbatim and
// returns its bytes, which alias the payload.
func (s *scanner) str() []byte {
	if s.bad || len(s.b) == 0 || s.b[0] != '"' {
		s.bad = true
		return nil
	}
	for i := 1; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			t := s.b[1:i]
			s.b = s.b[i+1:]
			return t
		case c == '\\' || c < 0x20 || c >= 0x80:
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

func (s *scanner) addr() netip.Addr {
	t := s.str()
	if len(t) == 0 {
		return netip.Addr{}
	}
	a, err := netip.ParseAddr(string(t))
	if err != nil {
		s.bad = true
	}
	return a
}

// source reads a fingerprint source. Any other string declines:
// StreamRecords rejects it after decode.
func (s *scanner) source() FingerprintSource {
	switch string(s.str()) {
	case string(SourceSNMP):
		return SourceSNMP
	case string(SourceTTL):
		return SourceTTL
	}
	s.bad = true
	return ""
}
