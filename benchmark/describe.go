package main

import "encoding/json"

// runSeconds is how long the driver lets each pass measure.
const runSeconds = 10

// benchmarkJSON renders BENCHMARK.json from the tables in this package, which
// are the one place the workloads and metrics are declared; the test holds the
// committed file equal to this.
func benchmarkJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []bounded  `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range allWorkloads {
		doc.Workloads = append(doc.Workloads, workload{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always encode
	}
	return append(buf, '\n')
}
