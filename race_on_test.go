//go:build race

package simany

// raceEnabled: the race detector multiplies memory and time several-fold,
// so the million-core smoke run is skipped under it.
const raceEnabled = true
