package main

import (
	"fmt"
	"time"
)

// Workload kinds: a batch count through the library, or the cncd daemon
// under HTTP load.
const (
	kindCount = "count"
	kindServe = "serve"
)

// spec is one workload's resolved configuration. The tests shrink Scale,
// Keys and Duration through this struct to run every workload end to end
// in seconds.
type spec struct {
	Name     string        `json:"name"`
	Kind     string        `json:"kind"`
	Profile  string        `json:"profile"`
	Scale    float64       `json:"scale"`
	Duration time.Duration `json:"duration_ns"`
	// SetupReps is how many times set-up (graph load, or daemon spawn to
	// ready) is repeated; setup_s is their median.
	SetupReps int `json:"setup_reps"`
	// RefNs is the reference pass's nanoseconds per merged element that
	// timings are reported at (ref.go): its median over the ten baseline
	// runs in bench/README.md.
	RefNs float64 `json:"ref_ns_per_element"`

	// Count workloads: one cncount.Count call per repetition.
	Algo    string `json:"algo,omitempty"`
	Reorder bool   `json:"reorder,omitempty"`
	Threads int    `json:"threads,omitempty"`
	Warmup  int    `json:"warmup_reps,omitempty"`

	// Serve workloads. Reads are open loop at ReadRate over ReadConns
	// connections, keys Zipf(ZipfS) over Keys sampled edges, endpoints
	// drawn edge:pair:topk by Mix. One more connection posts BatchOps-op
	// /v1/update batches, open loop at WriteRate next to the reads, then
	// closed loop on its own.
	ReadConns  int     `json:"read_conns,omitempty"`
	ReadRate   float64 `json:"read_rate,omitempty"`
	Keys       int     `json:"keys,omitempty"`
	ZipfS      float64 `json:"zipf_s,omitempty"`
	Mix        [3]int  `json:"mix_edge_pair_topk"`
	CheckEvery int     `json:"check_every,omitempty"`
	WriteRate  float64 `json:"write_rate,omitempty"`
	BatchOps   int     `json:"batch_ops,omitempty"`
	// WarmShare and OpenShare split Duration into the warm-up and the
	// open-loop phase; the closed-loop phase gets the rest.
	WarmShare float64 `json:"warm_share,omitempty"`
	OpenShare float64 `json:"open_share,omitempty"`
}

// workloads are the benchmark's workloads; BENCHMARK.json records why
// each was chosen.
var workloads = []spec{
	{
		// cnc's default path on a skewed graph: reorder and count mapping
		// dominate, so preprocessing changes show here.
		Name: "count-tw-bmp", Kind: kindCount, Profile: "TW", Scale: 1, SetupReps: 9, RefNs: 3.05,
		Algo: "bmp", Reorder: true, Threads: 2, Warmup: 3,
	},
	{
		// /v1/count's configuration on a dense, low-skew graph: the kernels
		// do the work and reorder is bypassed.
		Name: "count-or-adaptive", Kind: kindCount, Profile: "OR", Scale: 4, SetupReps: 9, RefNs: 1.93,
		Algo: "adaptive", Threads: 2, Warmup: 3,
	},
	{
		// Durable writes next to reads: every batch pays validate, WAL
		// fsync, repair, full CSR rebuild and the epoch swap.
		Name: "serve-mixed", Kind: kindServe, Profile: "TW", Scale: 0.5, SetupReps: 5, RefNs: 3.79,
		ReadConns: 1, ReadRate: 1000, Keys: 65536, ZipfS: 1.1, Mix: [3]int{8, 1, 1},
		CheckEvery: 16, WriteRate: 1, BatchOps: 16, WarmShare: 0.05, OpenShare: 0.6,
	},
}

// workloadByName returns a copy of the named workload's spec.
func workloadByName(name string) (spec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// validate rejects a spec that would oversubscribe the host: more counting
// threads, or more client connections, than nproc.
func (s spec) validate(nproc int) error {
	if s.Duration <= 0 {
		return fmt.Errorf("%s: duration must be positive", s.Name)
	}
	if s.SetupReps < 1 {
		return fmt.Errorf("%s: setup_reps must be at least 1", s.Name)
	}
	if s.RefNs <= 0 {
		return fmt.Errorf("%s: ref_ns_per_element must be positive", s.Name)
	}
	switch s.Kind {
	case kindCount:
		if s.Threads < 1 || s.Threads > nproc {
			return fmt.Errorf("%s: %d counting threads on a host with nproc=%d", s.Name, s.Threads, nproc)
		}
	case kindServe:
		if conns := s.ReadConns + 1; s.ReadConns < 1 || conns > nproc {
			return fmt.Errorf("%s: %d client connections on a host with nproc=%d", s.Name, conns, nproc)
		}
		if s.ReadRate <= 0 || s.Keys < 1 || s.CheckEvery < 1 || s.Mix[0]+s.Mix[1]+s.Mix[2] < 1 {
			return fmt.Errorf("%s: read stream needs a rate, keys, a check interval and a mix", s.Name)
		}
		if s.WarmShare < 0 || s.OpenShare <= 0 || s.WarmShare+s.OpenShare >= 1 {
			return fmt.Errorf("%s: phase shares %g+%g leave no closed-loop phase", s.Name, s.WarmShare, s.OpenShare)
		}
		if s.WriteRate <= 0 || s.BatchOps < 2 {
			return fmt.Errorf("%s: update stream needs a rate and batches of at least 2 ops", s.Name)
		}
	default:
		return fmt.Errorf("%s: unknown kind %q", s.Name, s.Kind)
	}
	return nil
}
