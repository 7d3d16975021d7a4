package archive

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/netip"
	"os"
	"reflect"
	"testing"

	"arest/internal/mpls"
	"arest/internal/probe"
	"arest/internal/testrace"
)

// sideTypes are the record types the scanner decodes.
var sideTypes = []Type{TypeVP, TypeFingerprint, TypeBorder, TypeSREnabled}

// sidePayloads returns the payloads of archive raw's VP, fingerprint,
// border and SR-enabled records, in stream order.
func sidePayloads(t testing.TB, raw []byte) []rawRecord {
	t.Helper()
	ar, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var out []rawRecord
	for {
		typ, body, err := ar.Next()
		if err != nil {
			t.Fatal(err)
		}
		if typ == TypeEnd {
			return out
		}
		switch typ {
		case TypeVP, TypeFingerprint, TypeBorder, TypeSREnabled:
			out = append(out, rawRecord{typ, string(body)})
		}
	}
}

// scanMatchesJSON reports whether scan accepts payload. When it does,
// json.Unmarshal must accept the payload too and decode a deep-equal
// record.
func scanMatchesJSON[T any](t *testing.T, payload []byte, scan func([]byte) (T, bool)) bool {
	t.Helper()
	got, ok := scan(payload)
	if !ok {
		return false
	}
	var want T
	if err := json.Unmarshal(payload, &want); err != nil {
		t.Fatalf("scanner accepted %q, which json.Unmarshal rejects: %v", payload, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanner read %q as %+v, json.Unmarshal as %+v", payload, got, want)
	}
	return true
}

// scanAs is scanMatchesJSON with the scanner of record type typ.
func scanAs(t *testing.T, typ Type, payload []byte) bool {
	t.Helper()
	switch typ {
	case TypeVP:
		return scanMatchesJSON(t, payload, scanVP)
	case TypeFingerprint:
		return scanMatchesJSON(t, payload, scanFingerprint)
	case TypeBorder:
		return scanMatchesJSON(t, payload, scanBorder)
	case TypeSREnabled:
		return scanMatchesJSON(t, payload, scanSREnabled)
	}
	t.Fatalf("no scanner for %s records", typ)
	return false
}

// TestScannerAcceptsWriterOutput: the scanner accepts what the writer
// writes for every side record of the fixtures and of a replay-shaped
// archive, and for records at the edges of each field, so the fuzzer's
// equivalence is not met by a scanner that declines everything.
func TestScannerAcceptsWriterOutput(t *testing.T) {
	var recs []rawRecord
	for _, d := range []*Data{fixtureData(), fixtureDataV2(), fixtureDataV3(), replayMixData()} {
		recs = append(recs, sidePayloads(t, encode(t, d))...)
	}
	for _, r := range []struct {
		typ Type
		rec any
	}{
		{TypeVP, VPRecord{}},
		{TypeVP, VPRecord{Index: math.MaxInt, Addr: addr("2001:db8::1"), Traces: math.MinInt}},
		{TypeFingerprint, FingerprintRecord{Addr: addr("::ffff:10.0.0.1"), Vendor: mpls.VendorLinux, Source: SourceTTL}},
		{TypeBorder, BorderRecord{Addr: addr("fe80::1%eth0"), ASN: -1}},
		{TypeSREnabled, SREnabledRecord{Addr: addr("fe80::2%en0.7~x")}},
		{TypeSREnabled, SREnabledRecord{}},
	} {
		b, err := json.Marshal(r.rec)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rawRecord{r.typ, string(b)})
	}
	seen := map[Type]int{}
	for _, r := range recs {
		if !scanAs(t, r.typ, []byte(r.payload)) {
			t.Errorf("scanner declined the writer's %s record %s", r.typ, r.payload)
		}
		seen[r.typ]++
	}
	if want := (map[Type]int{TypeVP: 24, TypeFingerprint: 60, TypeBorder: 137, TypeSREnabled: 128}); !reflect.DeepEqual(seen, want) {
		t.Errorf("scanned %v records, want %v", seen, want)
	}
}

// respelledVP is a VP record with its keys reordered, which the scanner
// declines and encoding/json reads.
var respelledVP = rawRecord{TypeVP, `{"traces":0,"addr":"172.16.0.1","index":0}`}

// respelled are side records in spellings the scanner declines and
// encoding/json reads; rejected are ones that encoding/json or the
// stream's own checks reject.
var (
	respelled = []rawRecord{
		{TypeFingerprint, `{ "addr": "10.1.0.1", "vendor": 4, "source": "snmp" }`},
		{TypeBorder, `{"addr":"fe80::1%a\u003cb","asn":293}`}, // the zone json.Marshal escapes
		{TypeSREnabled, `{"ADDR":"10.1.0.3"}`},
		{TypeBorder, `{"addr":"10.1.0.1","asn":1,"asn":-0}`},
	}
	rejected = []rawRecord{
		{TypeFingerprint, `{"addr":"10.1.0.1","vendor":4,"source":"lldp"}`},
		{TypeBorder, `{"addr":"10.1.0.1","asn":0293}`},
		{TypeBorder, `{"addr":"10.1.0.1","asn":9223372036854775808}`},
		{TypeSREnabled, `{"addr":"10.1.0"}`},
		{TypeSREnabled, `{"addr":"10.1.0.3"} x`},
	}
)

// TestRespelledSideRecordsDecode: StreamRecords reads the respelled side
// records as encoding/json does, through the fallback, and rejects the
// rejected ones.
func TestRespelledSideRecordsDecode(t *testing.T) {
	got, err := ReadData(bytes.NewReader(framedArchive(t, append([]rawRecord{respelledVP}, respelled...)...)))
	if err != nil {
		t.Fatal(err)
	}
	want := &Data{
		Meta:      fixtureData().Meta,
		VPs:       []netip.Addr{addr("172.16.0.1")},
		PerVP:     [][]*probe.Trace{{}},
		SNMP:      map[netip.Addr]mpls.Vendor{addr("10.1.0.1"): mpls.VendorNokia},
		TTL:       map[netip.Addr]mpls.Vendor{},
		Borders:   map[netip.Addr]int{addr("fe80::1%a<b"): 293, addr("10.1.0.1"): 0},
		SREnabled: []netip.Addr{addr("10.1.0.3")},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("respelled records decoded as\n %+v\nwant %+v", got, want)
	}
	for _, r := range rejected {
		if _, err := ReadData(bytes.NewReader(framedArchive(t, respelledVP, r))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s record %s: err = %v, want ErrCorrupt", r.typ, r.payload, err)
		}
	}
}

// FuzzSideRecords holds the scanner to encoding/json: for any bytes and
// each side record type, a payload the scanner accepts is one
// json.Unmarshal accepts, decoded to a deep-equal record. Seeds are every
// side payload of the golden archives and the spellings at the edge of
// the canonical form.
func FuzzSideRecords(f *testing.F) {
	for _, path := range []string{goldenPathV2, goldenPathV3} {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, r := range sidePayloads(f, raw) {
			f.Add([]byte(r.payload))
		}
	}
	escaped, err := json.Marshal(SREnabledRecord{Addr: addr("fe80::1%a<b>&")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(escaped)
	for _, s := range []string{
		`{"index":0,"addr":"","traces":0}`,                                      // zero address
		`{"addr":"2001:db8::1","asn":64512}`,                                    // IPv6
		`{"addr":"fe80::1%eth0"}`,                                               // zoned
		`{"index":-0,"addr":"172.16.0.1","traces":2}`,                           // -0
		`{"index":01,"addr":"172.16.0.1","traces":2}`,                           // leading zero
		`{"addr":"10.1.0.1","asn":9223372036854775808}`,                         // int64 overflow
		`{"index":-9223372036854775808,"addr":"","traces":9223372036854775807}`, // int64 bounds
		`{"addr":"10.1.0.1","asn":2.0}`,                                         // fraction
		`{"addr":"10.1.0.1","asn":1e3}`,                                         // exponent
		`{ "addr": "10.1.0.1", "vendor": 4, "source": "snmp" }`,                 // whitespace
		`{"ADDR":"10.1.0.1"}`,                                                   // upper-case key
		`{"addr":"10.1.0.1","asn":1,"asn":2}`,                                   // duplicate key
		`{"asn":293,"addr":"10.1.0.1"}`,                                         // reordered
		`{"addr":"10.1.0.1","vendor":4,"source":"lldp"}`,                        // unknown source
		`{"addr":"10.1.0.1"}x`,                                                  // trailing bytes
		`{"addr":"fe80::1%\u00e9"}`,                                             // escape
		"{\"addr\":\"fe80::1%\xc3\xa9\"}",                                       // non-ASCII
		"{\"addr\":\"fe80::1%\xff\"}",                                           // invalid UTF-8
		`{"addr":"10.1.0"}`,                                                     // not an address
		`null`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, typ := range sideTypes {
			scanAs(t, typ, in)
		}
	})
}

// sideAllocCase is one canonical side-record payload under an allocation
// budget.
type sideAllocCase struct {
	name   string
	budget float64
	// decoder checks that the scanner reads the payload and returns its
	// decode as StreamRecords runs it.
	decoder func(t *testing.T) func()
}

func sideAlloc[T any](name string, rec T, scan func([]byte) (T, bool), budget float64) sideAllocCase {
	return sideAllocCase{name, budget, func(t *testing.T) func() {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := scan(payload); !ok || !reflect.DeepEqual(got, rec) {
			t.Fatalf("scanner read %s as %+v (accepted %v), want %+v", payload, got, ok, rec)
		}
		return func() {
			if _, err := sideRecord(payload, scan); err != nil {
				t.Fatal(err)
			}
		}
	}}
}

// TestAllocBudgetSideRecords pins the scanner's budgets on canonical VP,
// fingerprint, border and SR-enabled payloads: a record allocates only the
// address text it hands netip.ParseAddr, and nothing with the zero
// address. Declined payloads go to encoding/json, whose allocations are
// not this package's to pin.
func TestAllocBudgetSideRecords(t *testing.T) {
	if testrace.Enabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
	for _, c := range []sideAllocCase{
		sideAlloc("vp", VPRecord{Index: 3, Addr: addr("172.16.3.1"), Traces: 72}, scanVP, 1),
		sideAlloc("vp zero address", VPRecord{Index: 0, Traces: 0}, scanVP, 0),
		sideAlloc("vp int bounds", VPRecord{Index: math.MaxInt, Traces: math.MinInt}, scanVP, 0),
		sideAlloc("fingerprint snmp", FingerprintRecord{Addr: addr("10.1.0.1"), Vendor: mpls.VendorNokia, Source: SourceSNMP}, scanFingerprint, 1),
		sideAlloc("fingerprint ttl", FingerprintRecord{Addr: addr("10.1.0.3"), Vendor: mpls.VendorCiscoHuawei, Source: SourceTTL}, scanFingerprint, 1),
		sideAlloc("border", BorderRecord{Addr: addr("10.1.0.1"), ASN: 293}, scanBorder, 1),
		sideAlloc("border ipv6", BorderRecord{Addr: addr("2001:db8::1"), ASN: 64512}, scanBorder, 1),
		sideAlloc("border zoned", BorderRecord{Addr: addr("fe80::1%eth0"), ASN: 64512}, scanBorder, 1),
		sideAlloc("sr-enabled", SREnabledRecord{Addr: addr("10.1.0.3")}, scanSREnabled, 1),
		sideAlloc("sr-enabled zero address", SREnabledRecord{}, scanSREnabled, 0),
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(200, c.decoder(t)); got > c.budget {
				t.Errorf("side record decode: %.1f allocs/op, budget %.0f", got, c.budget)
			}
		})
	}
}
