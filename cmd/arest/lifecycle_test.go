package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"arest/internal/archive"
	"arest/internal/asgen"
	"arest/internal/exp"
	"arest/internal/lifecycle"
	"arest/internal/probe"
)

// writeArchive measures one small AS and persists it as an archive for
// the analyzer to consume.
func writeArchive(t *testing.T) string {
	t.Helper()
	return measureArchive(t, 2, nil)
}

// measureArchive measures catalogue AS id at test scale — through wrap, the
// fault-injection seam, when non-nil — and writes it with archive.WriteFile.
func measureArchive(t *testing.T, id int, wrap func(asgen.Record, int, probe.Conn) probe.Conn) string {
	t.Helper()
	rec, ok := asgen.ByID(id)
	if !ok {
		t.Fatalf("AS#%d missing from catalogue", id)
	}
	cfg := exp.DefaultConfig()
	cfg.Seed = 101
	cfg.NumVPs = 3
	cfg.MaxTargets = 8
	cfg.WrapConn = wrap
	data, err := exp.MeasureAS(context.Background(), rec, cfg)
	if err != nil {
		t.Fatalf("MeasureAS: %v", err)
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("as%d.arest", id))
	if err := archive.WriteFile(path, data); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

func noHard(t *testing.T) func() {
	return func() { t.Error("hard abort invoked without a second signal") }
}

// TestDeadlineSuppressesPartialReport: an expired deadline aborts the
// analysis stream with the resumable status and never emits a truncated
// report.
func TestDeadlineSuppressesPartialReport(t *testing.T) {
	path := writeArchive(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-i", path, "-deadline", "1ns"}, nil, noHard(t), strings.NewReader(""), &stdout, &stderr)
	if code != lifecycle.ExitInterrupted {
		t.Fatalf("exit = %d, want %d\nstderr: %s", code, lifecycle.ExitInterrupted, stderr.String())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("partial report suppressed")) {
		t.Errorf("stderr does not explain the suppressed report:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("interrupted analysis still wrote %d bytes of report", stdout.Len())
	}
}

// TestSignalSuppressesPartialReport: a pre-queued signal behaves exactly
// like the deadline — same status, same suppression.
func TestSignalSuppressesPartialReport(t *testing.T) {
	path := writeArchive(t)
	sigs := make(chan os.Signal, 2)
	sigs <- syscall.SIGINT
	var stdout, stderr bytes.Buffer
	code := run([]string{"-i", path}, sigs, noHard(t), strings.NewReader(""), &stdout, &stderr)
	if code != lifecycle.ExitInterrupted {
		t.Fatalf("exit = %d, want %d\nstderr: %s", code, lifecycle.ExitInterrupted, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("interrupted analysis still wrote %d bytes of report", stdout.Len())
	}
}

// TestCleanAnalysisSucceeds: the same archive analyzes to a full report
// when nothing interferes.
func TestCleanAnalysisSucceeds(t *testing.T) {
	path := writeArchive(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-i", path}, nil, noHard(t), strings.NewReader(""), &stdout, &stderr); code != lifecycle.ExitOK {
		t.Fatalf("exit = %d, want 0\nstderr: %s", code, stderr.String())
	}
	if stdout.Len() == 0 {
		t.Error("clean analysis produced no report")
	}
}
