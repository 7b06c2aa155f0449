//go:build !race

package dacapo_test

const raceEnabled = false
