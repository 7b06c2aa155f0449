//go:build amd64 || arm64

package main

// getg returns the address of the calling goroutine's runtime descriptor:
// an identity that is unique among live goroutines and costs a register
// read, so the traced run can keep per-goroutine span stacks.
func getg() uintptr

// goroutineKey identifies the calling goroutine.
func goroutineKey() uintptr { return getg() }
