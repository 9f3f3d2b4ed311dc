//go:build !race

package simany

// raceEnabled: see race_on_test.go.
const raceEnabled = false
