package archive

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

const (
	goldenPathV2 = "testdata/golden_v2.arest"
	goldenPathV3 = "testdata/golden_v3.arest"
)

// checkGolden pins one format's on-disk bytes in both directions: the
// golden file decodes to the fixture, and the fixture encodes to the
// golden file. A failure after a code change means existing archives of
// that format would decode or re-encode differently — that needs a new
// format version, not a golden refresh. Regenerate with
// `go test ./internal/archive -run Golden -update` only when the fixture
// itself was deliberately extended.
func checkGolden(t *testing.T, path string, fixture func() *Data) {
	t.Helper()
	raw := encode(t, fixture())
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadData(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("golden archive no longer decodes: %v", err)
	}
	if want := fixture(); !reflect.DeepEqual(got, want) {
		t.Errorf("golden decode diverged from fixture:\n got %+v\nwant %+v", got, want)
	}
	if !bytes.Equal(raw, golden) {
		t.Errorf("encoder output changed: %d bytes, golden %d bytes; the %s format is frozen",
			len(raw), len(golden), fixture().Meta.Format)
	}
}

func TestGoldenV2(t *testing.T) { checkGolden(t, goldenPathV2, fixtureDataV2) }

func TestGoldenV3(t *testing.T) { checkGolden(t, goldenPathV3, fixtureDataV3) }
