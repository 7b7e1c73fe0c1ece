package metrics

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestPaddedTallyAlignment pins the false-sharing guarantee the sched
// recorder relies on: worker tally slots are padded to a whole number of
// tallyLine-byte units, with the pad derived from the struct size so a
// new WorkerTally field grows the pad instead of silently breaking the
// alignment.
func TestPaddedTallyAlignment(t *testing.T) {
	size := unsafe.Sizeof(paddedTally{})
	if size%tallyLine != 0 {
		t.Errorf("sizeof(paddedTally) = %d, not a multiple of %d", size, tallyLine)
	}
	if size < unsafe.Sizeof(WorkerTally{}) {
		t.Errorf("padded size %d < raw tally size %d", size, unsafe.Sizeof(WorkerTally{}))
	}
	// The pad must not add a full spurious line when the tally already
	// ends on a boundary.
	if want := (unsafe.Sizeof(WorkerTally{}) + tallyLine - 1) / tallyLine * tallyLine; size != want {
		t.Errorf("sizeof(paddedTally) = %d, want %d (tally rounded up)", size, want)
	}
}

// TestNewManifestPopulates checks the fields build info can always supply.
// VCS fields are legitimately absent under `go test` (the test binary is
// not a stamped build), so only their round-trip is covered elsewhere.
func TestNewManifestPopulates(t *testing.T) {
	m := NewManifest(map[string]string{"algo": "bmp"})
	if m.GoVersion != runtime.Version() {
		t.Errorf("GoVersion = %q, want %q", m.GoVersion, runtime.Version())
	}
	if m.GOOS != runtime.GOOS || m.GOARCH != runtime.GOARCH {
		t.Errorf("platform = %s/%s, want %s/%s", m.GOOS, m.GOARCH, runtime.GOOS, runtime.GOARCH)
	}
	if m.GOMAXPROCS != runtime.GOMAXPROCS(0) || m.NumCPU != runtime.NumCPU() {
		t.Errorf("parallelism = %d/%d, want %d/%d",
			m.GOMAXPROCS, m.NumCPU, runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if m.Config["algo"] != "bmp" {
		t.Errorf("Config = %v, want algo=bmp", m.Config)
	}
}

// TestSnapshotCarriesManifest checks SetManifest plumbs through Snapshot
// as an independent copy, and that the nil collector stays nil-safe.
func TestSnapshotCarriesManifest(t *testing.T) {
	var disabled *Collector
	disabled.SetManifest(Manifest{}) // must not panic

	c := New()
	if c.Snapshot().Manifest != nil {
		t.Error("manifest present before SetManifest")
	}
	m := NewManifest(nil)
	m.VCSRevision = "cafe"
	c.SetManifest(m)
	snap := c.Snapshot()
	if snap.Manifest == nil || snap.Manifest.VCSRevision != "cafe" {
		t.Fatalf("snapshot manifest = %+v, want VCSRevision cafe", snap.Manifest)
	}
	snap.Manifest.VCSRevision = "mutated"
	if c.Snapshot().Manifest.VCSRevision != "cafe" {
		t.Error("snapshot manifest aliases collector state")
	}
}
