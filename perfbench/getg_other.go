//go:build !amd64 && !arm64

package main

import "runtime"

// goroutineKey identifies the calling goroutine by the id in its stack
// header ("goroutine 123 [running]:"); slower than reading the runtime
// descriptor, but portable.
func goroutineKey() uintptr {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uintptr
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uintptr(c-'0')
	}
	return id
}
