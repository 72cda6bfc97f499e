#ifndef DJ_DATA_IO_H_
#define DJ_DATA_IO_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "common/thread_pool.h"
#include "data/dataset.h"

namespace dj::data {

/// Reads a whole file into a string.
Result<std::string> ReadFile(const std::string& path);

/// Writes `content` to `path`, creating parent directories.
Status WriteFile(const std::string& path, std::string_view content);

/// WriteFile, crash-atomically: `content` goes to `path + ".tmp"`, is
/// fsync'd and renamed over `path`, and the directory is fsync'd
/// (WriteStringToFileAtomic). A crash leaves the old `path` or a stray
/// .tmp file, never a torn `path`. Same io.write.* fail points as WriteFile.
Status WriteFileAtomic(const std::string& path, std::string_view content);

/// Parses JSON-Lines content: one strict-JSON object per non-empty line,
/// each parsed with json::ParseStrict. The buffer is cut right after a
/// newline into chunks: one without a pool or below 64 KiB, one per pool
/// thread otherwise. Each chunk parses its lines on its own worker, and a
/// failure names the earliest bad line of the whole buffer; the pool
/// changes only the chunk count, never the rows, column order or error
/// text.
Result<Dataset> ParseJsonl(std::string_view content,
                           ThreadPool* pool = nullptr);

/// Reads a .jsonl file into a dataset.
Result<Dataset> ReadJsonl(const std::string& path, ThreadPool* pool = nullptr);

/// Serializes the dataset as JSONL (null cells omitted, one row per line).
/// With a pool, row ranges stringify concurrently and gather in order;
/// output is byte-identical to the serial form.
std::string ToJsonl(const Dataset& dataset, ThreadPool* pool = nullptr);

/// Writes the dataset to a .jsonl file.
Status WriteJsonl(const Dataset& dataset, const std::string& path,
                  ThreadPool* pool = nullptr);

/// Binary cache codec for datasets (magic "DJDS"). Deterministic; used by
/// the per-OP cache and checkpoint layers, optionally djlz-compressed there.
///
/// SerializeDataset writes version 3: a checksummed header (row/column
/// counts, column names) followed by a shard table and N independently
/// decodable row-range shards, each with a byte length and a swar::Hash64
/// checksum. It sizes every (shard, column, row-range) piece first, then
/// encodes the pieces in place into one allocation, on `pool` when given,
/// and writes the header last. The byte stream depends only on the
/// dataset and `num_shards` (0 = deterministic auto from the row count),
/// never on the pieces or the pool. DeserializeDataset decodes shards on
/// `pool` and reads version 3 only: any other version byte (1 was one
/// unsharded stream, 2 the same layout with FNV-1a checksums) is a
/// Corruption error naming it.
std::string SerializeDataset(const Dataset& dataset, ThreadPool* pool = nullptr,
                             size_t num_shards = 0);
Result<Dataset> DeserializeDataset(std::string_view bytes,
                                   ThreadPool* pool = nullptr);

/// Binary codec for a single JSON value (shared with the dataset codec).
void SerializeValue(const json::Value& v, std::string* out);
Result<json::Value> DeserializeValue(std::string_view bytes);

/// Suffix-dispatched export: ".jsonl" (text), ".djds" (binary), or
/// ".djds.djlz" (binary, djlz-compressed). The compressed form is what the
/// cache layer writes; exposing it here lets pipelines ship compact
/// processed datasets. Serialization and compression run on `pool`.
Status ExportDataset(const Dataset& dataset, const std::string& path,
                     ThreadPool* pool = nullptr);

/// Inverse of ExportDataset (same suffix dispatch).
Result<Dataset> ImportDataset(const std::string& path,
                              ThreadPool* pool = nullptr);

}  // namespace dj::data

#endif  // DJ_DATA_IO_H_
