package exp

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestAggFoldComplete checks the fold contract of DESIGN.md §13 field by
// field. NewAgg must allocate every map, or the first trace folded into
// it panics; a nil slice is a ready, empty histogram. Merging an Agg that holds only one field into NewAgg() must
// reproduce that field, or merged shards silently drop it. The values
// are built by reflection, so a field added to Agg is covered as soon as
// it exists, and a field of a kind nonZero cannot fill fails the test.
func TestAggFoldComplete(t *testing.T) {
	fresh := reflect.ValueOf(NewAgg()).Elem()
	typ := fresh.Type()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if fresh.Field(i).Kind() == reflect.Map && fresh.Field(i).IsNil() {
			t.Errorf("NewAgg leaves map field %s nil: the first trace folded into it panics", name)
		}
		val, err := nonZero(typ.Field(i).Type)
		if err != nil {
			t.Errorf("field %s: %v", name, err)
			continue
		}
		var only Agg
		reflect.ValueOf(&only).Elem().Field(i).Set(val)
		merged := NewAgg()
		merged.Merge(&only)
		if got := reflect.ValueOf(merged).Elem().Field(i).Interface(); !reflect.DeepEqual(got, val.Interface()) {
			t.Errorf("Merge drops field %s: merging %v into NewAgg() gave %v", name, val, got)
		}
	}
}

// nonZero builds a non-zero value of type t: 3 for numbers, true, "x",
// one-entry maps and slices, arrays and structs with every element or
// field filled, and a fixed address for netip.Addr, whose fields are
// unexported.
func nonZero(t reflect.Type) (reflect.Value, error) {
	if t == reflect.TypeOf(netip.Addr{}) {
		return reflect.ValueOf(netip.MustParseAddr("192.0.2.1")), nil
	}
	v := reflect.New(t).Elem()
	switch t.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(3)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(3)
	case reflect.String:
		v.SetString("x")
	case reflect.Map:
		k, err := nonZero(t.Key())
		if err != nil {
			return v, err
		}
		e, err := nonZero(t.Elem())
		if err != nil {
			return v, err
		}
		v = reflect.MakeMap(t)
		v.SetMapIndex(k, e)
	case reflect.Slice:
		e, err := nonZero(t.Elem())
		if err != nil {
			return v, err
		}
		v = reflect.Append(v, e)
	case reflect.Array:
		for i := 0; i < t.Len(); i++ {
			e, err := nonZero(t.Elem())
			if err != nil {
				return v, err
			}
			v.Index(i).Set(e)
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return v, fmt.Errorf("cannot fill unexported field %s.%s", t, f.Name)
			}
			fv, err := nonZero(f.Type)
			if err != nil {
				return v, err
			}
			v.Field(i).Set(fv)
		}
	default:
		return v, fmt.Errorf("cannot fill a value of kind %s (%s): extend nonZero", t.Kind(), t)
	}
	return v, nil
}

// failAggFoldComplete runs TestAggFoldComplete in a nested go test with
// agg.go overlaid by a copy in which from is replaced by to. The run must
// fail; its output is returned for the caller to check what it names.
// -run is anchored so the nested run cannot reach the mutation tests.
func failAggFoldComplete(t *testing.T, from, to string) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	agg, err := filepath.Abs("agg.go")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(agg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), from) {
		t.Fatalf("agg.go no longer contains %q; update the mutation", from)
	}
	dir := t.TempDir()
	mutated := filepath.Join(dir, "agg.go")
	if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), from, to, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {agg: mutated}})
	if err != nil {
		t.Fatal(err)
	}
	overlayPath := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(goBin, "test", "-overlay", overlayPath, "-run", "^TestAggFoldComplete$", ".")
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=", "GOTOOLCHAIN=local")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("TestAggFoldComplete passed on the mutated agg.go:\n%s", out)
	}
	return string(out)
}

// TestMergeLineDeletionCaught deletes one fold line from Agg.Merge, for a
// count, an array tally and a slice histogram in turn: TestAggFoldComplete
// must fail and name the dropped field.
func TestMergeLineDeletionCaught(t *testing.T) {
	for _, tc := range []struct{ field, line string }{
		{"Traces", "\ta.Traces += o.Traces\n"},
		{"Flags", "\taddCounts(a.Flags[:], o.Flags[:])\n"},
		{"StackStrong", "\ta.StackStrong = addCounts(a.StackStrong, o.StackStrong)\n"},
	} {
		t.Run(tc.field, func(t *testing.T) {
			out := failAggFoldComplete(t, tc.line, "")
			if !strings.Contains(out, "Merge drops field "+tc.field+":") {
				t.Errorf("the deleted %s fold went unnamed:\n%s", tc.field, out)
			}
		})
	}
}

// TestFieldInjectionCaught adds a map field to Agg without touching NewAgg
// or Merge: TestAggFoldComplete must name it both as a nil map and as a
// field Merge drops.
func TestFieldInjectionCaught(t *testing.T) {
	const anchor = "type Agg struct {\n"
	out := failAggFoldComplete(t, anchor, anchor+"\tZzHist map[string]uint64\n")
	for _, want := range []string{"NewAgg leaves map field ZzHist nil", "Merge drops field ZzHist"} {
		if !strings.Contains(out, want) {
			t.Errorf("output does not contain %q:\n%s", want, out)
		}
	}
}
