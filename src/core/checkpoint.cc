#include "core/checkpoint.h"

#include <cctype>
#include <cstdio>
#include <filesystem>

#include "common/file_util.h"
#include "common/probe.h"
#include "common/string_util.h"
#include "data/io.h"

namespace dj::core {
namespace fs = std::filesystem;

namespace {

/// "checkpoint-<16 hex digits>.djds": the entry for `key`.
std::string EntryName(uint64_t key) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "checkpoint-%016llx.djds",
                static_cast<unsigned long long>(key));
  return buf;
}

/// A file this manager owns: an entry or an older layout's checkpoint.json
/// or checkpoint.djds, each with or without the ".tmp" of an interrupted
/// atomic write. Any other name, "checkpoint_best.pt" say, is the user's.
bool IsCheckpointFile(std::string_view name) {
  if (EndsWith(name, ".tmp")) name.remove_suffix(4);
  if (name == "checkpoint.json" || name == "checkpoint.djds") return true;
  constexpr std::string_view kPrefix = "checkpoint-";
  constexpr std::string_view kSuffix = ".djds";
  constexpr size_t kKeyDigits = 16;
  if (name.size() != kPrefix.size() + kKeyDigits + kSuffix.size() ||
      !StartsWith(name, kPrefix) || !EndsWith(name, kSuffix)) {
    return false;
  }
  for (size_t i = kPrefix.size(); i < kPrefix.size() + kKeyDigits; ++i) {
    if (std::isxdigit(static_cast<unsigned char>(name[i])) == 0) return false;
  }
  return true;
}

}  // namespace

std::string CheckpointManager::PathFor(uint64_t key) const {
  return dir_ + "/" + EntryName(key);
}

void CheckpointManager::RemoveOthers(std::string_view keep_name) const {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (IsCheckpointFile(name) && name != keep_name) {
      fs::remove(entry.path(), ec);
    }
  }
}

Status CheckpointManager::Save(uint64_t key, std::string_view djds) const {
  const std::string path = PathFor(key);
  if (DJ_FAULT("ckpt.blob_write")) {
    // Simulated crash while the entry is written: only a torn temp file
    // lands on disk, and the previous entry is untouched.
    WriteStringToFile(path + ".tmp", djds.substr(0, djds.size() * 2 / 3));
    return Status::IoError("fault injected: ckpt.blob_write (torn entry temp)");
  }
  DJ_RETURN_IF_ERROR(data::WriteFileAtomic(path, djds));
  if (DJ_FAULT("ckpt.after_blob")) {
    // Simulated crash between the durable entry and the sweep: the new and
    // the previous entry both exist.
    return Status::IoError(
        "fault injected: ckpt.after_blob (crash before the sweep)");
  }
  RemoveOthers(EntryName(key));
  return Status::Ok();
}

Result<data::Dataset> CheckpointManager::Load(uint64_t key) const {
  const std::string path = PathFor(key);
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    return Status::NotFound("no checkpoint " + path);
  }
  auto content = data::ReadFile(path);
  if (!content.ok()) {
    return Status::Corruption("checkpoint '" + path +
                              "' is unreadable: " + content.status().message());
  }
  auto dataset = data::DeserializeDataset(content.value(), pool_);
  if (!dataset.ok()) {
    return Status::Corruption("checkpoint '" + path + "' failed to decode: " +
                              dataset.status().message());
  }
  return dataset;
}

void CheckpointManager::Clear() const { RemoveOthers(/*keep_name=*/""); }

}  // namespace dj::core
