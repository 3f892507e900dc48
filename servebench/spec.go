package main

import (
	_ "embed"
	"encoding/json"
)

// spec.json is the benchmark's record of its own settings: seeds, the
// open-loop rates and client counts, and which end-to-end metric each
// per-layer metric should move on which workload.
// The run reads its settings from it, so the record cannot drift.
//
//go:embed spec.json
var specJSON []byte

type benchSpec struct {
	DefaultSeed         int64                      `json:"default_seed"`
	HeldOutSeed         int64                      `json:"held_out_seed"`
	PathSumTolerancePct float64                    `json:"path_sum_tolerance_pct"`
	Workloads           map[string]workloadSpec    `json:"workloads"`
	PerLayer            map[string]layerMetricSpec `json:"per_layer"`
	EndToEndNotes       map[string]string          `json:"end_to_end_notes"`
}

type workloadSpec struct {
	OpenRate float64 `json:"open_rate_per_s"`
	Rounds   int     `json:"rounds"` // latency and throughput are medians over the rounds
	Clients  int     `json:"clients"`
	Phases   string  `json:"phases"`
}

type layerMetricSpec struct {
	Moves     []string `json:"moves"`
	On        []string `json:"on"`
	UnmovedOn []string `json:"unmoved_on"`
	How       string   `json:"how"`
}

func loadSpec() (*benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, err
	}
	return &s, nil
}
