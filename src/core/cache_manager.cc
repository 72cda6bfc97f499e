#include "core/cache_manager.h"

#include <cctype>
#include <cstdio>
#include <filesystem>

#include "common/hash.h"
#include "common/string_util.h"
#include "compress/djlz.h"
#include "data/io.h"
#include "json/writer.h"

namespace dj::core {
namespace fs = std::filesystem;

namespace {

/// "<16 hex digits>.djds[.djlz]": a name PathFor gives an entry.
bool IsEntryName(std::string_view name) {
  constexpr size_t kKeyDigits = 16;
  if (name.size() <= kKeyDigits) return false;
  for (size_t i = 0; i < kKeyDigits; ++i) {
    if (std::isxdigit(static_cast<unsigned char>(name[i])) == 0) return false;
  }
  const std::string_view suffix = name.substr(kKeyDigits);
  return suffix == ".djds" || suffix == ".djds.djlz";
}

/// An entry's leftover temp file from an interrupted atomic Store.
bool IsEntryTempName(std::string_view name) {
  return EndsWith(name, ".tmp") &&
         IsEntryName(name.substr(0, name.size() - 4));
}

}  // namespace

uint64_t CacheManager::InitialKey(std::string_view source_id) {
  return Fnv1a64(source_id, 0xDA7A0CACE5ULL);
}

uint64_t CacheManager::ExtendKey(uint64_t key, std::string_view op_name,
                                 const json::Value& effective_config) {
  // The effective config is serialized deterministically (insertion-ordered
  // objects), so equal configurations hash equally across runs.
  uint64_t op_hash = Fnv1a64(op_name);
  uint64_t config_hash = Fnv1a64(json::Write(effective_config));
  return HashCombine(HashCombine(key, op_hash), config_hash);
}

std::string CacheManager::PathFor(uint64_t key) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(key));
  return dir_ + "/" + buf + (compression_ ? ".djds.djlz" : ".djds");
}

// The Bump() names, accounted here because the call sites pass them
// through a string_view parameter:
// srclint-declare(counter): cache.hit
// srclint-declare(counter): cache.miss
// srclint-declare(counter): cache.stores
// srclint-declare(counter): cache.load_bytes
// srclint-declare(counter): cache.store_bytes
void CacheManager::Bump(std::string_view counter, uint64_t delta) const {
  if (metrics_ != nullptr) metrics_->GetCounter(counter)->Add(delta);
}

bool CacheManager::Contains(uint64_t key) const {
  std::error_code ec;
  bool present = fs::exists(PathFor(key), ec);
  if (!present) Bump("cache.miss");
  return present;
}

Result<data::Dataset> CacheManager::Load(uint64_t key) const {
  std::string path = PathFor(key);
  auto content = data::ReadFile(path);
  if (!content.ok()) {
    Bump("cache.miss");
    return Status::NotFound("cache miss for key " + path);
  }
  std::string blob = std::move(content).value();
  Bump("cache.hit");
  Bump("cache.load_bytes", blob.size());
  if (compress::IsFrame(blob)) {
    DJ_ASSIGN_OR_RETURN(blob, compress::DecompressFrame(blob, pool_));
  }
  return data::DeserializeDataset(blob, pool_);
}

Status CacheManager::Store(uint64_t key, std::string_view djds) const {
  std::string frame;
  if (compression_) {
    frame = compress::CompressFrame(djds, pool_);
    djds = frame;
  }
  Bump("cache.stores");
  Bump("cache.store_bytes", djds.size());
  return data::WriteFileAtomic(PathFor(key), djds);
}

void CacheManager::Evict(uint64_t key) const {
  std::error_code ec;
  fs::remove(PathFor(key), ec);
}

void CacheManager::Clear() const {
  std::error_code ec;
  if (!fs::exists(dir_, ec)) return;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    std::string name = entry.path().filename().string();
    if (IsEntryName(name) || IsEntryTempName(name)) {
      fs::remove(entry.path(), ec);
    }
  }
}

uint64_t CacheManager::TotalBytes() const {
  std::error_code ec;
  if (!fs::exists(dir_, ec)) return 0;
  uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.is_regular_file(ec) &&
        IsEntryName(entry.path().filename().string())) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

}  // namespace dj::core
