#ifndef DJ_CORE_CHECKPOINT_H_
#define DJ_CORE_CHECKPOINT_H_

#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "core/cache_manager.h"
#include "data/dataset.h"

namespace dj::core {

/// A saved processing site as LoadLatest returns it: the dataset state plus
/// the index of the next OP to execute (paper Sec. 5.1.1: "the checkpoint
/// preserves the whole dataset and processing state enabling complete
/// recovery").
struct CheckpointState {
  size_t next_op_index = 0;
  uint64_t pipeline_key = 0;  ///< config-hash of OPs executed so far
  data::Dataset dataset;
};

/// Durable checkpoints for crash/failure recovery. A checkpoint is a JSON
/// manifest (checkpoint.json, schema 4) that names one file holding the
/// dataset, with that file's byte count and swar::Hash64 checksum. The
/// file is either the cache entry the unit boundary just stored (a djlz
/// frame or raw DJDS; CacheManager::Store) or, without the cache or when
/// its store failed, the checkpoint's own DJDS blob
/// ("checkpoint-<key>.djds"). Save overwrites the previous checkpoint of
/// the same run (the paper keeps the "most optimal recent processing
/// state").
///
/// Save is crash-atomic: the named file is durable before the manifest
/// names it (cache entries are written by temp-file + fsync + rename; an
/// own blob is written the same way here), and the manifest is swung over
/// the old one the same way. A crash at any point leaves the previous
/// manifest and the file it names intact. LoadLatest reads schema-4
/// manifests only; it verifies the file's size and checksum, decompresses
/// a djlz frame, decodes the DJDS and checks the row count, so a torn,
/// rotted, truncated or deleted file is rejected with a Corruption error
/// naming its path instead of being decoded into garbage. Hash64 has one
/// value at every SIMD dispatch level, so a checkpoint written under
/// DJ_FORCE_SCALAR=1 verifies without it. Fail points (common/probe.h)
/// cover each crash window: ckpt.blob_write, ckpt.after_blob,
/// ckpt.manifest_write.
///
/// The checkpoint owns the manifest and its own blobs only. Save's sweep
/// of stale blobs and Clear delete those and their temp files, never a
/// cache entry; a checkpoint whose entry was evicted or cleared from the
/// cache no longer loads, and the run starts fresh.
///
/// Thread-compatibility: CheckpointManager holds no mutex by design — one
/// instance belongs to one pipeline run and is driven from the executor
/// thread only. Crash-atomicity (rename) protects against concurrent
/// *processes* on the same directory, not concurrent threads on the same
/// instance.
class CheckpointManager {
 public:
  explicit CheckpointManager(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const { return dir_; }

  /// Attaches a thread pool (not owned; nullptr detaches): LoadLatest runs
  /// the djlz block decoder and the DJDS shard decoder on it.
  void SetPool(ThreadPool* pool) { pool_ = pool; }

  /// Makes the state after the OPs keyed by `pipeline_key`, resuming at OP
  /// `next_op_index`, the latest checkpoint. `djds` is its
  /// data::SerializeDataset blob of `num_rows` rows. With `cache_entry`,
  /// the file CacheManager::Store just wrote those bytes to, the manifest
  /// names that entry and Save writes no blob; without it, Save first
  /// writes `djds` to the checkpoint's own blob and names that.
  Status Save(size_t next_op_index, uint64_t pipeline_key, size_t num_rows,
              std::string_view djds,
              const StoredFile* cache_entry = nullptr) const;

  /// Loads the latest checkpoint. Returns NotFound when none exists and
  /// Corruption when the manifest is unreadable or not schema 4, the file
  /// it names is missing or unreadable, or that file's bytes do not match
  /// the manifest's size/checksum, do not decode, or decode to another row
  /// count — callers treat both as "no usable checkpoint" but the error
  /// text names the file and says what actually happened.
  Result<CheckpointState> LoadLatest() const;

  /// Removes the manifest, every own checkpoint blob, and their stale temp
  /// files. Cache entries a manifest named stay in the cache.
  void Clear() const;

 private:
  std::string ManifestPath() const { return dir_ + "/checkpoint.json"; }
  std::string BlobFileFor(uint64_t pipeline_key) const;
  void RemoveStaleBlobs(const std::string& keep_basename) const;

  std::string dir_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace dj::core

#endif  // DJ_CORE_CHECKPOINT_H_
