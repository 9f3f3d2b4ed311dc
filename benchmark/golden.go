package main

import (
	_ "embed"
	"encoding/json"
	"os"
)

// goldenPath is where -update-golden writes, relative to the repo root;
// reads use the copy embedded at build time, so they work from anywhere.
const goldenPath = "benchmark/testdata/fingerprints.json"

//go:embed testdata/fingerprints.json
var goldenData []byte

// goldenSet maps "<workload>/<simulation>" to its fingerprint.
type goldenSet map[string]fingerprint

// goldenSeed is the only seed the checked-in fingerprints describe. Any
// other seed is checked against the native checksums and for rep-to-rep
// equality only.
const goldenSeed = 42

// loadGolden reads the section of the golden file for the given sizes.
func loadGolden(section string) (goldenSet, error) {
	var all map[string]goldenSet
	if err := json.Unmarshal(goldenData, &all); err != nil {
		return nil, err
	}
	return all[section], nil
}

// updateGolden writes the fingerprints of set into one section of the golden
// file and leaves every other entry as it is, so that a run of one workload
// updates that workload only.
func updateGolden(path, section string, set goldenSet) error {
	all := map[string]goldenSet{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return err
		}
	}
	if all[section] == nil {
		all[section] = goldenSet{}
	}
	for key, fp := range set {
		all[section][key] = fp
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
