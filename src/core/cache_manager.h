#ifndef DJ_CORE_CACHE_MANAGER_H_
#define DJ_CORE_CACHE_MANAGER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "obs/metrics.h"

namespace dj::core {

/// Per-OP dataset cache keyed by the input and a configuration hash (paper
/// Sec. 5.1.1 and Sec. 7 "Caching OPs and Compression"). The key for OP i
/// combines a digest of the input's content with the effective configs of
/// OPs 0..i, so an edited input misses every entry and any upstream
/// parameter change invalidates downstream ones: the "dedicated and simple
/// hashing method" that sidesteps serializing auxiliary models.
///
/// Files are DJDS blobs, optionally djlz-compressed ("<key>.djds" /
/// "<key>.djds.djlz", the key as 16 hex digits).
///
/// Store writes each entry crash-atomically (data::WriteFileAtomic: temp
/// file, fsync, rename, directory fsync), so an entry on disk is either
/// whole or absent, and the executor writes no checkpoint for a boundary
/// whose entry it stored. A crash mid-store leaves "<entry>.tmp",
/// which Clear removes and TotalBytes does not count. Load still verifies
/// the DJDS and djlz checksums (a disk can rot what was written whole),
/// and the executor's cache scan evicts an entry that fails them and falls
/// back to a shorter prefix.
///
/// Thread-compatibility: CacheManager holds no mutex by design. It is safe
/// to use distinct instances from distinct threads, but a single instance
/// must be externally synchronized (the executor drives it from the
/// pipeline thread only).
class CacheManager {
 public:
  CacheManager(std::string dir, bool compression)
      : dir_(std::move(dir)), compression_(compression) {}

  /// Attaches a metrics sink (not owned; nullptr detaches): Contains misses
  /// bump "cache.miss", successful Loads bump "cache.hit" and
  /// "cache.load_bytes", Stores bump "cache.stores" and "cache.store_bytes".
  void SetMetrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Attaches a thread pool (not owned; nullptr detaches): Load and Store
  /// run the DJDS shard codec and djlz block codec on it. Cache bytes are
  /// identical with or without a pool.
  void SetPool(ThreadPool* pool) { pool_ = pool; }

  /// Extends a running key with the next OP's effective config.
  static uint64_t ExtendKey(uint64_t key, std::string_view op_name,
                            const json::Value& effective_config);

  /// Initial key for `dataset`: a digest of its column names in order, its
  /// row count and its cells, hashed over fixed row ranges on `pool`, so the
  /// key is the same with no pool and at every width.
  static uint64_t InitialKey(const data::Dataset& dataset,
                             ThreadPool* pool = nullptr);

  bool Contains(uint64_t key) const;

  /// Loads the cached dataset for `key`; NotFound when absent.
  Result<data::Dataset> Load(uint64_t key) const;

  /// Stores `djds`, a data::SerializeDataset blob, under `key`
  /// (atomically replacing any entry there), djlz-compressing it first
  /// when compression is on. The caller serializes, so a checkpoint can
  /// take the same bytes when the store fails.
  Status Store(uint64_t key, std::string_view djds) const;

  /// Removes the entry for `key` if present.
  void Evict(uint64_t key) const;

  /// Removes every entry in the directory and every leftover
  /// "<entry>.tmp" of an interrupted Store; other files stay.
  void Clear() const;

  /// Total bytes of the entries in the directory (temp files excluded).
  uint64_t TotalBytes() const;

 private:
  std::string PathFor(uint64_t key) const;
  void Bump(std::string_view counter, uint64_t delta = 1) const;

  std::string dir_;
  bool compression_;
  obs::MetricsRegistry* metrics_ = nullptr;
  ThreadPool* pool_ = nullptr;
};

}  // namespace dj::core

#endif  // DJ_CORE_CACHE_MANAGER_H_
