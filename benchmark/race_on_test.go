//go:build race

package main

// raceEnabled: under the race detector most CPU samples land in its C
// runtime, which no stack walk attributes, so the share thresholds are
// skipped.
const raceEnabled = true
