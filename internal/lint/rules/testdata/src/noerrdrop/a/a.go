// Package a is noerrdrop testdata: discarded error returns in an audited
// package.
package a

import "errors"

func mayFail() error          { return errors.New("x") }
func pair() (int, error)      { return 0, errors.New("x") }
func value() int              { return 3 }
func twoErrs() (error, error) { return nil, nil }

type conn struct{}

func (conn) Close() error { return nil }

func bad() {
	mayFail()    // want "result of mayFail contains an error that is silently discarded"
	pair()       // want "result of pair contains an error that is silently discarded"
	twoErrs()    // want "result of twoErrs contains an error that is silently discarded"
	go mayFail() // want "result of mayFail contains an error that is silently discarded"
	var c conn
	defer c.Close() // want "result of c.Close contains an error that is silently discarded"
	v, _ := pair()  // want "error result of pair assigned to _"
	_ = v
	_, _ = value(), mayFail() // want "error result of mayFail assigned to _"
}

func good() error {
	value() // no error among the results: fine
	if err := mayFail(); err != nil {
		return err
	}
	v, err := pair()
	_ = v
	_ = err // discarding an existing value is explicit and visible, not flagged
	return nil
}
