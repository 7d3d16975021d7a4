// Package a exercises hotpathalloc: this file is a hot scope, so each
// allocation-forcing construct fires here and stays legal in cold.go.
//
//arest:hotpath file

package a

import "fmt"

// hotAll trips every allocation check, one per line.
func hotAll(n int, s string) string {
	msg := fmt.Sprintf("n=%d", n) // want `fmt\.Sprintf on the hot path`
	c := s + msg                  // want `string concatenation on the hot path`
	c += s                        // want `string \+= on the hot path`
	m := map[int]int{n: n}        // want `map literal on the hot path`
	xs := []int{n}                // want `slice literal on the hot path`
	var box interface{} = n       // want `var with interface type .* boxes a concrete value`
	y := any(n)                   // want `conversion to .* boxes a concrete value`
	f := func() int { return n }  // want `closure capturing "n" on the hot path`
	_ = m
	_ = xs
	_ = box
	_ = y
	_ = f
	return c
}

// hotErr's failure path returns an error and may allocate freely.
func hotErr(n int) (string, error) {
	if n < 0 {
		return "", fmt.Errorf("negative n %d", n)
	}
	return "ok", nil
}

// hotPanic's contract-violation path may allocate: it runs at most once.
func hotPanic(n int) int {
	if n > 1<<20 {
		panic(fmt.Sprintf("n out of range: %d", n))
	}
	return n * 2
}

// hotConst concatenates constants only: folded at compile time, legal.
func hotConst() string { return "a" + "b" }

// hotStack builds struct and array values: stack-allocatable, legal.
func hotStack(n int) int {
	p := struct{ a, b int }{n, n}
	var arr [4]int
	arr[0] = p.a
	return arr[0] + p.b
}

// hotLitNoCapture's literal reads only its own locals: no environment to
// heap-allocate.
func hotLitNoCapture() int {
	f := func(x int) int { return x + 1 }
	return f(1)
}
