// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a machine-readable JSON baseline. Each invocation records one
// labeled run; with -o it merges into an existing file, replacing any run
// with the same label, so a baseline file can carry a "pre" and a "post"
// run side by side:
//
//	go test -run NONE -bench . -benchmem ./... | go run ./cmd/benchjson -label post -o BENCH_6.json
//
// The tool is stdlib-only and records no timestamps or host state beyond
// what the benchmark output itself contains (the determinism contract,
// DESIGN.md §10, bans wall-clock reads; benchmark numbers are measurements,
// inherently non-deterministic, but the file structure around them is a
// pure function of the input).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark line. allocs_per_op and bytes_per_op are -1 when
// the input lacked -benchmem columns, never omitted: a true zero is the
// whole point of an allocation baseline.
type Result struct {
	Name        string  `json:"name"`
	Pkg         string  `json:"pkg"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Run is one labeled invocation of the bench suite.
type Run struct {
	Label   string   `json:"label"`
	Results []Result `json:"results"`
}

// File is the top-level baseline document.
type File struct {
	Runs []Run `json:"runs"`
}

func main() {
	label := flag.String("label", "run", "label recorded for this bench run")
	out := flag.String("o", "", "output file to merge into (stdout when empty)")
	flag.Parse()

	results, err := parse(os.Stdin, runtime.GOMAXPROCS(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	var doc File
	if *out != "" {
		if prev, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(prev, &doc); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: existing %s is not a baseline file: %v\n", *out, err)
				os.Exit(1)
			}
		}
	}
	replaced := false
	for i := range doc.Runs {
		if doc.Runs[i].Label == *label {
			doc.Runs[i].Results = results
			replaced = true
			break
		}
	}
	if !replaced {
		doc.Runs = append(doc.Runs, Run{Label: *label, Results: results})
	}

	enc, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse reads `go test -bench` output: "pkg:" lines set the package of the
// benchmark lines that follow (the format go test emits when benchmarking
// multiple packages); everything else that does not start with "Benchmark"
// is ignored. procs is the GOMAXPROCS the benchmarks ran under: benchjson
// reads the output of a go test run in the same environment.
func parse(r io.Reader, procs int) ([]Result, error) {
	var results []Result
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "ok ") || strings.HasPrefix(line, "ok\t"):
			// Package summary; the next package's "pkg:" line follows.
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		res, ok, err := parseLine(line, pkg, procs)
		if err != nil {
			return nil, err
		}
		if ok {
			results = append(results, res)
		}
	}
	return results, sc.Err()
}

// parseLine parses one "BenchmarkX-8  N  v ns/op [v B/op  v allocs/op]"
// line. ok is false for Benchmark lines without measurements (the bare
// name go test prints before running it under -v).
func parseLine(line, pkg string, procs int) (Result, bool, error) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, false, nil
	}
	name := benchName(f[0], procs)
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false, nil // not a measurement line
	}
	res := Result{Name: name, Pkg: pkg, Iterations: iters, BytesPerOp: -1, AllocsPerOp: -1}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false, fmt.Errorf("bad value %q in %q", f[i], line)
		}
		switch f[i+1] {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		}
	}
	return res, true, nil
}

// benchName trims the "-<procs>" suffix go test appends to every benchmark
// name when GOMAXPROCS > 1, and nothing else: a sub-benchmark whose own
// name ends in a number ("workers-8") keeps it, and at GOMAXPROCS=1, where
// go test appends no suffix, the name is returned unchanged.
func benchName(name string, procs int) string {
	if procs <= 1 {
		return name
	}
	return strings.TrimSuffix(name, "-"+strconv.Itoa(procs))
}
