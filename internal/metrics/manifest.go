package metrics

import (
	"runtime"
	"runtime/debug"
)

// Manifest records the build and environment a run executed under: the
// main module's version and VCS revision (from runtime/debug build info),
// the Go toolchain, the host shape, and the resolved run configuration.
// Embedded into Snapshot and served as cncount_build_info on /metrics, it
// makes a metrics snapshot self-describing: it can always answer "which
// binary, on which machine, with which flags produced these numbers".
type Manifest struct {
	// Module is the main module path; Version its module version
	// ("(devel)" for a source build).
	Module  string `json:"module,omitempty"`
	Version string `json:"version,omitempty"`
	// VCSRevision, VCSTime and VCSModified carry the version-control stamp
	// when the binary was built from a checkout (empty/false otherwise,
	// e.g. under `go test`).
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// GOOS/GOARCH identify the platform; GOMAXPROCS and NumCPU the
	// parallelism the run had available.
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Config is the resolved run configuration (flag values after
	// defaulting), as the producing command chose to record it.
	Config map[string]string `json:"config,omitempty"`
}

// NewManifest collects the build and environment manifest, attaching the
// given resolved run config (which may be nil). Fields that build info
// cannot supply (no VCS stamp, test binaries) are left zero.
func NewManifest(config map[string]string) Manifest {
	m := Manifest{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Config:     config,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		m.Module = bi.Main.Path
		m.Version = bi.Main.Version
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.VCSRevision = s.Value
			case "vcs.time":
				m.VCSTime = s.Value
			case "vcs.modified":
				m.VCSModified = s.Value == "true"
			}
		}
	}
	return m
}
