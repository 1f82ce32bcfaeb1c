package geoalign

import (
	"io"

	"geoalign/internal/core"
)

// SnapshotMeta carries the unit keys alongside an engine snapshot, so a
// process loading the artifact can translate external identifiers to
// engine indices without the original crosswalk files. Either slice may
// be empty when keys are not tracked.
type SnapshotMeta struct {
	SourceKeys []string
	TargetKeys []string
}

func (m *SnapshotMeta) toCore() *core.SnapshotMeta {
	if m == nil {
		return nil
	}
	return &core.SnapshotMeta{SourceKeys: m.SourceKeys, TargetKeys: m.TargetKeys}
}

// WriteSnapshot persists the Aligner's full precomputation — crosswalks,
// design matrix, Gram system, row-sum normalisers — to a versioned,
// checksummed binary file that OpenSnapshot maps back at near-zero
// cost. The write is atomic (temp file + rename). meta may be nil.
// The file holds everything a solve reads, so an aligner opened from it
// has no lazily computed state left to pay for.
func (a *Aligner) WriteSnapshot(path string, meta *SnapshotMeta) error {
	return a.engine.WriteSnapshotFile(path, meta.toCore())
}

// WriteSnapshotTo streams the snapshot to w and returns the byte count.
// Callers wanting crash-safe files should prefer WriteSnapshot.
func (a *Aligner) WriteSnapshotTo(w io.Writer, meta *SnapshotMeta) (int64, error) {
	return a.engine.WriteSnapshot(w, meta.toCore())
}

// PrecomputeSolverCaches does nothing. The aligner keeps no lazily
// computed solver state: everything a solve reads is built by
// NewAligner and stored by WriteSnapshot. It remains only for existing
// callers and will be removed.
func (a *Aligner) PrecomputeSolverCaches() {}

// OpenSnapshot maps the snapshot at path and rebuilds an Aligner around
// it: the precompute arrays alias the mapped file (zero-copy on
// little-endian hosts), so opening costs page faults rather than a
// crosswalk rebuild. Results are bit-identical to the aligner the
// snapshot was written from.
//
// opts plays the same role as in NewAligner; it is caller policy and is
// not stored in the file. The returned Aligner owns the mapping — call
// Close when done, and not before the last Align returns.
//
// Corrupt, truncated, foreign-endian or non-snapshot files are rejected
// with descriptive errors; a snapshot is either loaded fully verified
// (per-section CRC32C) or not at all.
func OpenSnapshot(path string, opts *AlignerOptions) (*Aligner, *SnapshotMeta, error) {
	coreOpts, workers := engineOptions(opts)
	engine, m, err := core.LoadSnapshot(path, coreOpts)
	if err != nil {
		return nil, nil, err
	}
	return &Aligner{engine: engine, workers: workers}, &SnapshotMeta{SourceKeys: m.SourceKeys, TargetKeys: m.TargetKeys}, nil
}

// Close releases the mapped snapshot backing an OpenSnapshot aligner.
// After Close the Aligner must not be used. Closing a freshly built
// Aligner is a no-op; Close is idempotent.
func (a *Aligner) Close() error { return a.engine.Close() }

// SnapshotStats describes an Aligner's relationship to its snapshot,
// for observability surfaces.
type SnapshotStats struct {
	// FromSnapshot reports whether the aligner was loaded with
	// OpenSnapshot rather than built from crosswalks.
	FromSnapshot bool
	// MappedBytes is the size of the backing snapshot file (0 when
	// freshly built).
	MappedBytes int64
	// PrecomputeBytes estimates the resident size of the
	// attribute-independent precompute; for snapshot-loaded aligners
	// most of it aliases the shared mapping.
	PrecomputeBytes int64
}

// Stats returns the aligner's snapshot statistics.
func (a *Aligner) Stats() SnapshotStats {
	return SnapshotStats{
		FromSnapshot:    a.engine.FromSnapshot(),
		MappedBytes:     a.engine.MappedBytes(),
		PrecomputeBytes: a.engine.PrecomputeBytes(),
	}
}
