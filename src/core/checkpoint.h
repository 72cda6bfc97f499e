#ifndef DJ_CORE_CHECKPOINT_H_
#define DJ_CORE_CHECKPOINT_H_

#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
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

/// Durable checkpoints for crash/failure recovery. A checkpoint is a DJDS
/// dataset blob plus a JSON manifest; Save overwrites the previous
/// checkpoint of the same run (the paper keeps the "most optimal recent
/// processing state").
///
/// Save is crash-atomic: the blob is written to a per-pipeline-key file via
/// temp-file + fsync + rename, and only then is the manifest (schema 3) —
/// which names the blob file and records its size and swar::Hash64
/// checksum — swung over the old one the same way. A crash at any point
/// (including between blob and manifest) leaves the previous manifest/blob
/// pair fully intact. LoadLatest reads schema-3 manifests only and verifies
/// the blob's size and checksum before decoding and its row count after, so
/// a torn or mismatched blob is rejected with a clear Corruption error
/// instead of being decoded into garbage. Hash64 has one value at every
/// SIMD dispatch level, so a checkpoint written under DJ_FORCE_SCALAR=1
/// verifies without it. Fail points (common/probe.h) cover each crash window:
/// ckpt.blob_write, ckpt.after_blob, ckpt.manifest_write.
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
  /// the DJDS shard decoder on it.
  void SetPool(ThreadPool* pool) { pool_ = pool; }

  /// Makes `djds`, a data::SerializeDataset blob of `num_rows` rows, the
  /// latest checkpoint: the state after the OPs keyed by `pipeline_key`,
  /// resuming at OP `next_op_index`. The caller serializes, so one blob can
  /// also feed the cache.
  Status Save(size_t next_op_index, uint64_t pipeline_key, size_t num_rows,
              std::string_view djds) const;

  /// Loads the latest checkpoint. Returns NotFound when none exists and
  /// Corruption when the manifest is unreadable or not schema 3, the blob
  /// is missing or torn, or the blob bytes do not match the manifest's
  /// size/checksum/row count — callers treat both as "no usable
  /// checkpoint" but the error text tells an operator what actually
  /// happened.
  Result<CheckpointState> LoadLatest() const;

  /// Removes the manifest, every checkpoint blob, and any stale temp files.
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
