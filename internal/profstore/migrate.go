package profstore

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
)

// Earlier builds could also write a sharded layout: shards.json (global
// sequence counter, evictions inherited from a single-index archive) and
// shard-NN/ directories, each holding its own index.json and runs/. Open
// folds it into the one layout in steps that are all safe to repeat, so an
// Open that crashes part-way is finished by the next one:
//
//  1. Read shards.json, the root index and each shard index that exists; a
//     garbled shard index is renamed to .corrupt, its records left in place.
//  2. Rename every listed record into runs/ (one already moved is skipped).
//  3. Write the merged listing to index.json.merged and commit by removing
//     shards.json. Until then index.json is untouched, so a retry merges the
//     same inputs and counts no eviction twice.
//  4. Rename index.json.merged over index.json; remove emptied shard dirs.
const (
	shardMetaFile = "shards.json"
	mergedFile    = "index.json.merged"
)

// shardMeta is shards.json; its shard count is never read.
type shardMeta struct {
	Version     int   `json:"version"`
	NextSeq     int64 `json:"next_seq"`
	EvictedBase int64 `json:"evicted_base"`
}

// migrateShards migrates a sharded archive at dir, or finishes a migration
// an earlier Open left half done.
func migrateShards(dir string) error {
	if err := mergeShards(dir); err != nil {
		return err
	}
	err := os.Rename(filepath.Join(dir, mergedFile), filepath.Join(dir, indexFile))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	for _, sd := range shardDirs(dir) {
		// A shard still holding records (quarantined, or a duplicate of a
		// run at the root) stays as it is.
		if err := os.Remove(filepath.Join(sd, runsDir)); err != nil && !os.IsNotExist(err) {
			continue
		}
		_ = os.Remove(filepath.Join(sd, indexFile))
		_ = os.Remove(sd) // fails, harmlessly, while anything else is left
	}
	return nil
}

// mergeShards performs steps 1-3 when shards.json exists.
func mergeShards(dir string) error {
	metaPath := filepath.Join(dir, shardMetaFile)
	data, err := os.ReadFile(metaPath)
	if os.IsNotExist(err) {
		return nil
	} else if err != nil {
		return err
	}
	var meta shardMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return &CorruptIndexError{Path: metaPath, Err: err}
	}
	if meta.Version > Version {
		return newerVersion(metaPath, meta.Version)
	}
	merged, err := readIndex(filepath.Join(dir, indexFile))
	if err != nil {
		return err
	}
	merged.EvictedTotal += meta.EvictedBase
	merged.NextSeq = max(merged.NextSeq, meta.NextSeq)

	dirs := shardDirs(dir)
	shards := make([]index, len(dirs))
	for i, sd := range dirs {
		path := filepath.Join(sd, indexFile)
		if shards[i], err = readIndex(path); errors.Is(err, ErrCorruptIndex) {
			shards[i], err = index{}, os.Rename(path, path+".corrupt")
		}
		if err != nil {
			return err
		}
	}

	have := map[string]bool{}
	for _, m := range merged.Runs {
		have[m.ID] = true
	}
	for i, sh := range shards {
		merged.EvictedTotal += sh.EvictedTotal
		merged.NextSeq = max(merged.NextSeq, sh.NextSeq)
		for _, m := range sh.Runs {
			if have[m.ID] {
				continue
			}
			have[m.ID] = true
			err := os.Rename(filepath.Join(dirs[i], runsDir, m.ID+".json"), filepath.Join(dir, runsDir, m.ID+".json"))
			if err != nil && !os.IsNotExist(err) {
				return err
			}
			merged.Runs = append(merged.Runs, m)
			merged.NextSeq = max(merged.NextSeq, m.Seq+1)
		}
	}
	sort.SliceStable(merged.Runs, func(i, j int) bool { return merged.Runs[i].Seq < merged.Runs[j].Seq })
	if err := writeJSON(filepath.Join(dir, mergedFile), &merged); err != nil {
		return err
	}
	return os.Remove(metaPath)
}

// shardDirs lists the shard directories that exist under dir, in name order.
func shardDirs(dir string) []string {
	matches, _ := filepath.Glob(filepath.Join(dir, "shard-*")) // the pattern is valid
	var dirs []string
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil && fi.IsDir() {
			dirs = append(dirs, m)
		}
	}
	return dirs
}
