#ifndef DJ_CORE_CHECKPOINT_H_
#define DJ_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/thread_pool.h"
#include "data/dataset.h"

namespace dj::core {

/// Durable checkpoints for crash/failure recovery (paper Sec. 5.1.1: the
/// checkpoint keeps the "most optimal recent processing state"). A
/// checkpoint is one raw DJDS blob, "checkpoint-<key>.djds", named like a
/// cache entry by the config-hash key of the OPs executed so far (the key
/// as 16 hex digits). The cache keeps every unit's state; the checkpoint
/// keeps only the newest, and the executor's resume scan reads both by key.
/// The executor saves a boundary here only when the cache is off or did
/// not store it.
///
/// Save is crash-atomic: the entry is written with data::WriteFileAtomic
/// (temp file, fsync, rename, directory fsync), and only once it is durable
/// are the older checkpoint files deleted. A crash at any point leaves the
/// previous entry loadable. Load decodes an entry with
/// data::DeserializeDataset, whose header checksum, shard checksums and
/// payload-size check reject a torn, rotted or truncated entry with a
/// Corruption error naming its path. Fail points (common/probe.h) cover
/// the crash windows: ckpt.blob_write, ckpt.after_blob.
///
/// The checkpoint owns only its entries, the checkpoint.json and
/// checkpoint.djds of older layouts (which nothing reads), and the ".tmp"
/// files of all of these. Save's sweep and Clear delete those and nothing
/// else: no cache entry, even when the cache shares the directory, and no
/// other file of the user's.
///
/// Thread-compatibility: CheckpointManager holds no mutex by design — one
/// instance belongs to one pipeline run and is driven from the executor
/// thread only. Crash-atomicity (rename) protects against concurrent
/// *processes* on the same directory, not concurrent threads on the same
/// instance.
class CheckpointManager {
 public:
  explicit CheckpointManager(std::string dir) : dir_(std::move(dir)) {}

  /// Attaches a thread pool (not owned; nullptr detaches): Load runs the
  /// DJDS shard decoder on it.
  void SetPool(ThreadPool* pool) { pool_ = pool; }

  /// Makes `djds`, the data::SerializeDataset blob of the state after the
  /// OPs keyed by `key`, the latest checkpoint.
  Status Save(uint64_t key, std::string_view djds) const;

  /// Loads the entry for `key`. NotFound when there is none; Corruption,
  /// naming the entry's path, when it is unreadable or does not decode.
  Result<data::Dataset> Load(uint64_t key) const;

  /// Removes every checkpoint file. Cache entries in the directory stay.
  void Clear() const;

 private:
  std::string PathFor(uint64_t key) const;
  /// Deletes every checkpoint file in the directory but `keep_name`.
  void RemoveOthers(std::string_view keep_name) const;

  std::string dir_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace dj::core

#endif  // DJ_CORE_CHECKPOINT_H_
