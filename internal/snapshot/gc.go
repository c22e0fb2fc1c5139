package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// DefaultPartMaxAge is how old an unmerged part (or a quarantined
// *.bad corpse) must be before GC treats it as abandoned. A day is
// far beyond any live build's dispatch-to-merge window while still
// letting an interrupted overnight build resume the next morning.
const DefaultPartMaxAge = 24 * time.Hour

// GCOptions bounds a store directory. Zero-valued limits are "no
// limit" — GC(dir, GCOptions{}) removes nothing but orphans and
// abandoned parts past the default age.
type GCOptions struct {
	// KeepLatest keeps at most N newest sealed snapshots (by mtime).
	KeepLatest int
	// MaxBytes caps the total bytes of kept sealed snapshots
	// (payload files only; their small manifests ride along).
	MaxBytes int64
	// PartMaxAge ages out pending part files and quarantined *.bad
	// files whose build was abandoned: any such file older than this
	// is removed even though its snapshot has not sealed (a resumable
	// build younger than the age keeps its parts). 0 means
	// DefaultPartMaxAge.
	PartMaxAge time.Duration
	// DryRun reports what would be removed without removing it.
	DryRun bool
}

// GCStats reports what a GC pass kept and reclaimed.
type GCStats struct {
	Kept       int   // sealed snapshots retained
	Removed    int   // files removed (snapshots, manifests, parts)
	FreedBytes int64 // bytes reclaimed (or reclaimable, under DryRun)
}

// GC enforces a retention policy on a snapshot store directory:
// sealed snapshots are kept newest-first while they fit both the
// KeepLatest count and the MaxBytes budget, and evicted ones are
// removed together with their manifest sidecars. Orphans go
// regardless of policy: manifests whose snapshot is gone, sealed part
// files whose merged snapshot already exists (a crashed coordinator's
// leftovers), parts of a still-unmerged build older than PartMaxAge
// (an abandoned build — younger parts are kept so interrupted builds
// stay resumable), and quarantined *.bad files once their snapshot
// sealed or they pass the same age gate. Stale temp files are
// CreateShard's and MergeShards' job, not GC's.
func GC(dir string, opts GCOptions) (GCStats, error) {
	var st GCStats
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return st, nil
		}
		return st, fmt.Errorf("snapshot: %w", err)
	}
	type snapInfo struct {
		name  string
		size  int64
		mtime int64
	}
	var snaps []snapInfo
	have := make(map[string]bool)
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "ws-") || strings.Contains(name, ".tmp") {
			continue
		}
		if strings.HasSuffix(name, ".snap") {
			info, err := e.Info()
			if err != nil {
				continue
			}
			snaps = append(snaps, snapInfo{name: name, size: info.Size(), mtime: info.ModTime().UnixNano()})
			have[name] = true
		}
	}
	remove := func(name string) {
		path := filepath.Join(dir, name)
		info, err := os.Stat(path)
		if err != nil {
			return
		}
		st.Removed++
		st.FreedBytes += info.Size()
		if !opts.DryRun {
			_ = os.Remove(path)
		}
	}

	// Policy pass: newest snapshots first, evict once either cap trips.
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].mtime > snaps[j].mtime })
	var kept int64
	for i, s := range snaps {
		overCount := opts.KeepLatest > 0 && i >= opts.KeepLatest
		overBytes := opts.MaxBytes > 0 && kept+s.size > opts.MaxBytes
		if overCount || overBytes {
			remove(s.name)
			remove(s.name + manifestSuffix)
			delete(have, s.name)
			continue
		}
		kept += s.size
		st.Kept++
	}

	// Orphan pass: manifests without a snapshot; parts whose snapshot
	// already sealed (the merge that made it deletes parts on success,
	// so surviving ones are crash leftovers); parts and quarantined
	// *.bad corpses whose build was abandoned (older than the age
	// gate with no sealed snapshot in sight — a live or resumable
	// build's parts are younger than that by construction).
	partAge := opts.PartMaxAge
	if partAge <= 0 {
		partAge = DefaultPartMaxAge
	}
	cutoff := time.Now().Add(-partAge)
	abandoned := func(e os.DirEntry) bool {
		info, err := e.Info()
		return err == nil && info.ModTime().Before(cutoff)
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "ws-") || strings.Contains(name, ".tmp") {
			continue
		}
		switch {
		case strings.HasSuffix(name, manifestSuffix):
			if !have[strings.TrimSuffix(name, manifestSuffix)] {
				remove(name)
			}
		case strings.Contains(name, ".snap.part-"):
			// Pending parts and *.bad corpses alike: gone once the
			// merged snapshot exists, or once the build is abandoned.
			base := name[:strings.Index(name, ".part-")]
			if have[base] || abandoned(e) {
				remove(name)
			}
		}
	}
	return st, nil
}
