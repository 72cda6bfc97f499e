#include "core/checkpoint.h"

#include <cstdio>
#include <filesystem>

#include "common/file_util.h"
#include "common/probe.h"
#include "common/string_util.h"
#include "common/swar.h"
#include "compress/djlz.h"
#include "data/io.h"
#include "json/parser.h"
#include "json/writer.h"

namespace dj::core {
namespace fs = std::filesystem;

namespace {

// Schema 4 names the file that holds the dataset — a cache entry or the
// checkpoint's own blob — with its byte count and swar::Hash64. Schema 3
// (always an own blob), schema 2 (FNV-1a) and the pre-atomic layout (a
// bare checkpoint.djds beside a manifest with no schema or checksum) are
// refused, not decoded: checkpoints are regenerable, and a run that
// rejects one starts fresh.
constexpr int64_t kManifestSchema = 4;

}  // namespace

std::string CheckpointManager::BlobFileFor(uint64_t pipeline_key) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(pipeline_key));
  return std::string("checkpoint-") + buf + ".djds";
}

void CheckpointManager::RemoveStaleBlobs(
    const std::string& keep_basename) const {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    // Only the checkpoint's own files: its blobs (the pre-atomic
    // checkpoint.djds too, so an old layout's blob is collected by the
    // first Save over it) and the temp files of its blobs and manifest.
    // A cache entry is never the checkpoint's to delete, even when the
    // cache shares this directory.
    if (!StartsWith(name, "checkpoint")) continue;
    const bool stale_blob = EndsWith(name, ".djds") && name != keep_basename;
    if (stale_blob || EndsWith(name, ".tmp")) fs::remove(entry.path(), ec);
  }
}

Status CheckpointManager::Save(size_t next_op_index, uint64_t pipeline_key,
                               size_t num_rows, std::string_view djds,
                               const StoredFile* cache_entry) const {
  // The file the manifest will name. The manifest records an own blob by
  // its name in dir_, and a cache entry by its absolute path.
  const std::string blob_file = BlobFileFor(pipeline_key);
  StoredFile file;
  if (cache_entry != nullptr) {
    file = *cache_entry;
  } else {
    file.path = dir_ + "/" + blob_file;
    file.bytes = djds.size();
  }

  if (DJ_FAULT("ckpt.blob_write")) {
    // Simulated crash while the named file is written: only a torn temp
    // file lands on disk, and the previous checkpoint is untouched. (A
    // cache entry was written by CacheManager::Store; this leaves what a
    // crash inside that atomic write would.)
    WriteStringToFile(file.path + ".tmp", djds.substr(0, djds.size() * 2 / 3));
    return Status::IoError("fault injected: ckpt.blob_write (torn blob temp)");
  }
  if (cache_entry == nullptr) {
    file.checksum = swar::Hash64(djds.data(), djds.size());
    DJ_RETURN_IF_ERROR(WriteStringToFileAtomic(file.path, djds));
  }

  if (DJ_FAULT("ckpt.after_blob")) {
    // Simulated crash between the file and the manifest: the new file
    // exists under its own name, but the manifest still names the previous
    // one — the previous checkpoint stays fully loadable.
    return Status::IoError(
        "fault injected: ckpt.after_blob (crash between blob and manifest)");
  }

  json::Object manifest;
  manifest.Set("schema", json::Value(kManifestSchema));
  manifest.Set("next_op_index",
               json::Value(static_cast<int64_t>(next_op_index)));
  manifest.Set("pipeline_key", json::Value(static_cast<int64_t>(pipeline_key)));
  manifest.Set("num_rows", json::Value(static_cast<int64_t>(num_rows)));
  manifest.Set("file",
               json::Value(cache_entry != nullptr ? file.path : blob_file));
  manifest.Set("file_bytes", json::Value(static_cast<int64_t>(file.bytes)));
  manifest.Set("file_checksum",
               json::Value(static_cast<int64_t>(file.checksum)));
  const std::string manifest_json =
      json::Write(json::Value(std::move(manifest)), {.pretty = true});

  if (DJ_FAULT("ckpt.manifest_write")) {
    WriteStringToFile(
        ManifestPath() + ".tmp",
        std::string_view(manifest_json).substr(0, manifest_json.size() / 2));
    return Status::IoError(
        "fault injected: ckpt.manifest_write (torn manifest temp)");
  }
  DJ_RETURN_IF_ERROR(WriteStringToFileAtomic(ManifestPath(), manifest_json));

  // The manifest now names the new file; older own blobs and stray temp
  // files from crashed Saves are garbage.
  RemoveStaleBlobs(cache_entry != nullptr ? std::string() : blob_file);
  return Status::Ok();
}

Result<CheckpointState> CheckpointManager::LoadLatest() const {
  auto manifest_content = data::ReadFile(ManifestPath());
  if (!manifest_content.ok()) {
    return Status::NotFound("no checkpoint in " + dir_);
  }
  auto parsed = json::ParseStrict(manifest_content.value());
  if (!parsed.ok()) {
    return Status::Corruption("checkpoint manifest " + ManifestPath() +
                              " is unreadable (torn write?): " +
                              parsed.status().message());
  }
  const json::Value& manifest = parsed.value();
  const json::Value* schema =
      manifest.is_object() ? manifest.as_object().Find("schema") : nullptr;
  if (schema == nullptr || !schema->is_int() ||
      schema->as_int() != kManifestSchema) {
    return Status::Corruption(
        "checkpoint manifest " + ManifestPath() + " has schema " +
        (schema == nullptr ? std::string("(none)") : json::Write(*schema)) +
        "; only schema " + std::to_string(kManifestSchema) +
        " is readable, refusing to load it");
  }
  for (const char* field : {"next_op_index", "pipeline_key", "num_rows",
                            "file", "file_bytes", "file_checksum"}) {
    if (!manifest.as_object().Contains(field)) {
      return Status::Corruption("checkpoint manifest " + ManifestPath() +
                                " lacks '" + field + "'");
    }
  }

  // An own blob is named relative to dir_, a cache entry by absolute path.
  const std::string named = manifest.GetString("file", "");
  const std::string path =
      fs::path(named).is_absolute() ? named : dir_ + "/" + named;
  auto content = data::ReadFile(path);
  if (!content.ok()) {
    return Status::Corruption("checkpoint manifest " + ManifestPath() +
                              " names missing/unreadable file '" + path +
                              "': " + content.status().message());
  }
  std::string bytes = std::move(content).value();
  if (bytes.size() !=
          static_cast<uint64_t>(manifest.GetInt("file_bytes", -1)) ||
      swar::Hash64(bytes) !=
          static_cast<uint64_t>(manifest.GetInt("file_checksum", 0))) {
    return Status::Corruption(
        "checkpoint file '" + path +
        "' does not match its manifest (checksum/size mismatch — torn, "
        "corrupted or replaced); refusing to decode");
  }
  if (compress::IsFrame(bytes)) {
    auto djds = compress::DecompressFrame(bytes, pool_);
    if (!djds.ok()) {
      return Status::Corruption("checkpoint file '" + path +
                                "' failed to decompress: " +
                                djds.status().message());
    }
    bytes = std::move(djds).value();
  }

  CheckpointState state;
  state.next_op_index =
      static_cast<size_t>(manifest.GetInt("next_op_index", 0));
  state.pipeline_key =
      static_cast<uint64_t>(manifest.GetInt("pipeline_key", 0));
  auto dataset = data::DeserializeDataset(bytes, pool_);
  if (!dataset.ok()) {
    return Status::Corruption("checkpoint file '" + path +
                              "' failed to decode: " +
                              dataset.status().message());
  }
  const int64_t want_rows = manifest.GetInt("num_rows", -1);
  if (dataset.value().NumRows() != static_cast<uint64_t>(want_rows)) {
    return Status::Corruption(
        "checkpoint file '" + path + "' decoded to " +
        std::to_string(dataset.value().NumRows()) + " rows but the manifest "
        "recorded " + std::to_string(want_rows));
  }
  state.dataset = std::move(dataset).value();
  return state;
}

void CheckpointManager::Clear() const {
  std::error_code ec;
  fs::remove(ManifestPath(), ec);
  RemoveStaleBlobs(/*keep_basename=*/"");
}

}  // namespace dj::core
