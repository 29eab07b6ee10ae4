//go:build !viewdebug

package view

// The hash store's structural counters and its widened publication window
// compile to nothing unless the viewdebug build tag is set (debug_on.go).

func noteHash()       {}
func noteProbe()      {}
func noteKeyCompare() {}
func installGap()     {}
