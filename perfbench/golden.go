package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
)

// The reference digests. Every simulated statistic is deterministic for a
// fixed workload, policy, scale and seed, so a change that only makes the
// simulator faster must reproduce these bytes exactly. The timed runs draw
// their seeds from these pools (rotated by --seed), so every timed output
// has a recorded digest to be checked against.

//go:embed golden.json
var goldenJSON []byte

var (
	fullsysSeeds = []uint64{101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114, 115, 116}
	regenSeeds   = []uint64{42, 43, 44, 45, 46, 47, 48, 49}
)

type golden struct {
	FullsysScale float64           `json:"fullsys_scale"`
	RegenScale   float64           `json:"regen_scale"`
	Fullsys      map[string]string `json:"fullsys"` // simRun.key() -> sha256 of serve.ResultJSON
	Regen        map[string]string `json:"regen"`   // seed -> sha256 of the report bytes
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	if g.FullsysScale != fullsysScale || g.RegenScale != regenScale {
		return g, fmt.Errorf("golden.json was recorded at scales %g/%g, the benchmark runs %g/%g; rerun --write-golden",
			g.FullsysScale, g.RegenScale, fullsysScale, regenScale)
	}
	return g, nil
}

// recordGolden computes every reference digest and writes them to path.
func recordGolden(path string) error {
	g := golden{
		FullsysScale: fullsysScale,
		RegenScale:   regenScale,
		Fullsys:      map[string]string{},
		Regen:        map[string]string{},
	}
	for i := range fullsysSeeds {
		for _, r := range fullsysPass(uint64(i)) {
			sr, err := simulate(r, fullsysScale, nil, 0)
			if err != nil {
				return fmt.Errorf("fullsys %s: %w", r.key(), err)
			}
			g.Fullsys[r.key()] = digest(sr.body)
		}
	}
	for _, seed := range regenSeeds {
		rg, err := regenerate(seed, runtime.NumCPU(), nil, 0)
		if err != nil {
			return err
		}
		g.Regen[strconv.FormatUint(seed, 10)] = digest(rg.doc)
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
