// Resumable checkpoints for the exhaustive sweep.
//
// A checkpoint records only *completed* shards: per-shard results are
// folded into the persisted counters exactly when the shard's bitmap
// bit is set, and a shard interrupted mid-flight leaves no trace, so a
// resumed sweep re-runs it from scratch and the final accounting is
// identical to an uninterrupted run's. Files are written via a
// temporary sibling plus os.Rename, so a crash mid-write leaves the
// previous checkpoint intact.
package exhaust

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// checkpointVersion guards the on-disk schema. Version 2 added the
// variant, per-path counts and per-path mismatch results.
const checkpointVersion = 2

// Mismatch is one refuted input: at least one path's result disagreed
// with the correctly rounded one (+0 and -0 agree, and every NaN or NaR
// agrees with another).
type Mismatch struct {
	Bits  uint32   `json:"bits"`  // input bit pattern
	Want  uint32   `json:"want"`  // correctly rounded result bits
	Paths []string `json:"paths"` // the paths that got it wrong ...
	Got   []uint32 `json:"got"`   // ... and their result bits
}

// checkpoint is the serialized sweep state. Config fields are stored so
// a resume against a different representation, function, library,
// shard layout, or guard width is rejected instead of silently merging
// incompatible accounting.
type checkpoint struct {
	Version   int     `json:"version"`
	Variant   string  `json:"variant"`
	Func      string  `json:"func"`
	Lib       string  `json:"lib"`
	ShardBits int     `json:"shard_bits"`
	Limit     uint64  `json:"limit"`
	GuardUlps float64 `json:"guard_ulps"`

	// Done is the completed-shard bitmap (bit s of Done[s/8]).
	Done []byte `json:"done"`

	// Totals over completed shards only.
	Inputs     uint64 `json:"inputs"`
	NaNInputs  uint64 `json:"nan_inputs"`
	Filtered   uint64 `json:"filtered"`
	Escalated  uint64 `json:"escalated"`
	Mismatched uint64 `json:"mismatched"`
	// PathMismatched counts each path's wrong results, in path order.
	PathMismatched []uint64 `json:"path_mismatched"`

	// Mismatches holds up to maxMismatches entries; Mismatched is the
	// authoritative count when the log is truncated.
	Mismatches []Mismatch `json:"mismatches"`
}

// newCheckpoint returns the empty state of e's sweep.
func (e *engine) newCheckpoint() *checkpoint {
	return &checkpoint{
		Version: checkpointVersion, Variant: e.variant, Func: e.name, Lib: e.cfg.Lib,
		ShardBits: int(e.shardBits), Limit: e.limit, GuardUlps: e.guard,
		Done:           make([]byte, (e.nShards+7)/8),
		PathMismatched: make([]uint64, len(e.paths)),
	}
}

// loadCheckpoint reads and validates a checkpoint against the sweep
// configuration it is about to seed.
func loadCheckpoint(path string, want checkpoint) (*checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cp checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("exhaust: corrupt checkpoint %s: %w", path, err)
	}
	switch {
	case cp.Version != checkpointVersion:
		return nil, fmt.Errorf("exhaust: checkpoint %s has version %d, want %d", path, cp.Version, checkpointVersion)
	case cp.Variant != want.Variant || cp.Func != want.Func || cp.Lib != want.Lib:
		return nil, fmt.Errorf("exhaust: checkpoint %s is for %s/%s.%s, sweep is %s/%s.%s",
			path, cp.Lib, cp.Variant, cp.Func, want.Lib, want.Variant, want.Func)
	case cp.ShardBits != want.ShardBits || cp.Limit != want.Limit:
		return nil, fmt.Errorf("exhaust: checkpoint %s shard layout (bits=%d limit=%d) differs from sweep (bits=%d limit=%d)",
			path, cp.ShardBits, cp.Limit, want.ShardBits, want.Limit)
	case cp.GuardUlps != want.GuardUlps:
		return nil, fmt.Errorf("exhaust: checkpoint %s guard width %g differs from sweep %g",
			path, cp.GuardUlps, want.GuardUlps)
	case len(cp.Done) != len(want.Done) || len(cp.PathMismatched) != len(want.PathMismatched):
		return nil, fmt.Errorf("exhaust: checkpoint %s has %d bitmap bytes and %d paths, want %d and %d",
			path, len(cp.Done), len(cp.PathMismatched), len(want.Done), len(want.PathMismatched))
	}
	return &cp, nil
}

// save atomically writes the checkpoint: marshal, write a temporary
// file in the destination directory, rename over the target.
func (cp *checkpoint) save(path string) error {
	data, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// done reports whether shard s is marked complete.
func (cp *checkpoint) done(s uint64) bool {
	return cp.Done[s>>3]&(1<<(s&7)) != 0
}

// markDone sets shard s complete.
func (cp *checkpoint) markDone(s uint64) {
	cp.Done[s>>3] |= 1 << (s & 7)
}
