package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// pinsJSON pins every simulated statistic each workload produces, as
// measured when the benchmark was defined. A speed-only change must
// leave all of them identical. A key ending in "@seed<N>" holds only
// for that seed (the trace's bytes depend on the disk content); the
// others hold for every seed, because the content seed moves no
// simulated timing.
//
//go:embed pins.json
var pinsJSON []byte

var pins = func() map[string]map[string]float64 {
	var p map[string]map[string]float64
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic("bench: pins.json: " + err.Error())
	}
	return p
}()

// checkSim fails an op whose simulated statistics differ from the
// workload's pins, or from ref (the warm-up op's) when ref is given.
func checkSim(workload string, seed uint64, sim, ref map[string]float64) error {
	var keys []string
	for k := range pins[workload] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		name, only, scoped := strings.Cut(k, "@")
		if scoped && only != fmt.Sprintf("seed%d", seed) {
			continue
		}
		got, ok := sim[name]
		if want := pins[workload][k]; !ok || got != want {
			return fmt.Errorf("simulated %s = %v, pinned %v", name, got, want)
		}
	}
	if ref == nil {
		return nil
	}
	for k, v := range sim {
		if ref[k] != v {
			return fmt.Errorf("simulated %s = %v, the warm-up op's was %v", k, v, ref[k])
		}
	}
	return nil
}
