#include "data/io.h"

#include <algorithm>
#include <cstring>

#include "common/file_util.h"
#include "common/swar.h"
#include "common/probe.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "compress/djlz.h"
#include "json/parser.h"
#include "json/writer.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace dj::data {
namespace {

constexpr char kDatasetMagic[4] = {'D', 'J', 'D', 'S'};
// The only container version read or written: a sharded layout with
// swar::Hash64 header/shard checksums. Versions 1 (unsharded) and 2
// (FNV-1a checksums) are rejected; caches and checkpoints regenerate.
constexpr uint8_t kDatasetVersion = 3;

/// Sharding defaults for the container. The auto shard count depends
/// only on the row count — never on the pool — so serial and parallel
/// serialization produce identical bytes.
constexpr size_t kRowsPerShard = 2048;
constexpr size_t kMaxAutoShards = 64;

/// Rows per serialization piece (one column's cells over a row range).
/// Pieces only split the work; the bytes do not depend on them.
constexpr size_t kRowsPerPiece = 256;

/// Inputs below this size parse as one chunk even when a pool is given:
/// chunk scheduling would cost more than the parse.
constexpr size_t kParallelParseThreshold = 1 << 16;

// Value tags for the binary codec.
enum : uint8_t {
  kTagNull = 0,
  kTagFalse = 1,
  kTagTrue = 2,
  kTagInt = 3,
  kTagDouble = 4,
  kTagString = 5,
  kTagArray = 6,
  kTagObject = 7,
};

// The encoders come in size/put pairs: Put* writes exactly the bytes its
// *Size counterpart reports at `dst` and returns the end of what it wrote,
// so a caller sizes a whole blob first and then encodes it in place.

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

char* PutVarint(uint64_t v, char* dst) {
  while (v >= 0x80) {
    *dst++ = static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  *dst++ = static_cast<char>(v);
  return dst;
}

bool GetVarint(std::string_view bytes, size_t* pos, uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (*pos < bytes.size() && shift <= 63) {
    uint8_t b = static_cast<uint8_t>(bytes[*pos]);
    ++*pos;
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

size_t StringSize(std::string_view s) {
  return VarintSize(s.size()) + s.size();
}

char* PutString(std::string_view s, char* dst) {
  dst = PutVarint(s.size(), dst);
  if (!s.empty()) std::memcpy(dst, s.data(), s.size());
  return dst + s.size();
}

bool GetString(std::string_view bytes, size_t* pos, std::string* out) {
  uint64_t len = 0;
  if (!GetVarint(bytes, pos, &len)) return false;
  // `*pos + len` can wrap for adversarial lengths; compare against the
  // remaining byte count instead (GetVarint guarantees *pos <= size here).
  if (len > bytes.size() - *pos) return false;
  out->assign(bytes.substr(*pos, len));
  *pos += len;
  return true;
}

char* PutU64Fixed(uint64_t v, char* dst) {
  for (int i = 0; i < 8; ++i) {
    *dst++ = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  return dst;
}

bool GetU64Fixed(std::string_view bytes, size_t* pos, uint64_t* out) {
  if (bytes.size() - *pos < 8) return false;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[*pos + i]))
         << (8 * i);
  }
  *pos += 8;
  *out = v;
  return true;
}

uint64_t ZigZag(int64_t x) {
  return (static_cast<uint64_t>(x) << 1) ^ static_cast<uint64_t>(x >> 63);
}

/// Bytes EncodeValue writes for `v`.
size_t EncodedSize(const json::Value& v) {
  switch (v.type()) {
    case json::Value::Type::kNull:
    case json::Value::Type::kBool:
      return 1;
    case json::Value::Type::kInt:
      return 1 + VarintSize(ZigZag(v.as_int()));
    case json::Value::Type::kDouble:
      return 9;
    case json::Value::Type::kString:
      return 1 + StringSize(v.as_string());
    case json::Value::Type::kArray: {
      size_t n = 1 + VarintSize(v.as_array().size());
      for (const auto& e : v.as_array()) n += EncodedSize(e);
      return n;
    }
    case json::Value::Type::kObject: {
      size_t n = 1 + VarintSize(v.as_object().size());
      for (const auto& [key, value] : v.as_object().entries()) {
        n += StringSize(key) + EncodedSize(value);
      }
      return n;
    }
  }
  return 0;
}

/// Writes the value codec's bytes for `v` at `dst`: a tag byte, then the
/// payload (zigzag varint ints, raw 8-byte doubles, length-prefixed
/// strings, counted arrays and objects).
char* EncodeValue(const json::Value& v, char* dst) {
  switch (v.type()) {
    case json::Value::Type::kNull:
      *dst++ = static_cast<char>(kTagNull);
      return dst;
    case json::Value::Type::kBool:
      *dst++ = static_cast<char>(v.as_bool() ? kTagTrue : kTagFalse);
      return dst;
    case json::Value::Type::kInt:
      *dst++ = static_cast<char>(kTagInt);
      return PutVarint(ZigZag(v.as_int()), dst);
    case json::Value::Type::kDouble: {
      *dst++ = static_cast<char>(kTagDouble);
      const double d = v.as_double();
      std::memcpy(dst, &d, 8);
      return dst + 8;
    }
    case json::Value::Type::kString:
      *dst++ = static_cast<char>(kTagString);
      return PutString(v.as_string(), dst);
    case json::Value::Type::kArray:
      *dst++ = static_cast<char>(kTagArray);
      dst = PutVarint(v.as_array().size(), dst);
      for (const auto& e : v.as_array()) dst = EncodeValue(e, dst);
      return dst;
    case json::Value::Type::kObject:
      *dst++ = static_cast<char>(kTagObject);
      dst = PutVarint(v.as_object().size(), dst);
      for (const auto& [key, value] : v.as_object().entries()) {
        dst = PutString(key, dst);
        dst = EncodeValue(value, dst);
      }
      return dst;
  }
  return dst;
}

/// `depth` counts the arrays and objects around the value. A cell is
/// decoded at depth 1, inside its row, so it nests as deep as
/// json::ParseStrict lets it in a JSONL line (json::kMaxNestingDepth).
Status DeserializeValueAt(std::string_view bytes, size_t* pos,
                          json::Value* out, int depth) {
  if (*pos >= bytes.size()) return Status::Corruption("truncated value");
  uint8_t tag = static_cast<uint8_t>(bytes[(*pos)++]);
  if ((tag == kTagArray || tag == kTagObject) &&
      depth >= json::kMaxNestingDepth) {
    return Status::Corruption("value nested deeper than " +
                              std::to_string(json::kMaxNestingDepth) +
                              " levels");
  }
  switch (tag) {
    case kTagNull:
      *out = json::Value(nullptr);
      return Status::Ok();
    case kTagFalse:
      *out = json::Value(false);
      return Status::Ok();
    case kTagTrue:
      *out = json::Value(true);
      return Status::Ok();
    case kTagInt: {
      uint64_t zz = 0;
      if (!GetVarint(bytes, pos, &zz)) {
        return Status::Corruption("truncated int");
      }
      int64_t v = static_cast<int64_t>(zz >> 1) ^ -static_cast<int64_t>(zz & 1);
      *out = json::Value(v);
      return Status::Ok();
    }
    case kTagDouble: {
      if (bytes.size() - *pos < 8) return Status::Corruption("truncated double");
      uint64_t bits = 0;
      std::memcpy(&bits, bytes.data() + *pos, 8);
      *pos += 8;
      double d;
      std::memcpy(&d, &bits, 8);
      *out = json::Value(d);
      return Status::Ok();
    }
    case kTagString: {
      std::string s;
      if (!GetString(bytes, pos, &s)) {
        return Status::Corruption("truncated string");
      }
      *out = json::Value(std::move(s));
      return Status::Ok();
    }
    case kTagArray: {
      uint64_t n = 0;
      if (!GetVarint(bytes, pos, &n)) {
        return Status::Corruption("truncated array size");
      }
      // Every element costs at least one tag byte, so a count beyond the
      // remaining bytes is corrupt — and must not drive reserve().
      if (n > bytes.size() - *pos) {
        return Status::Corruption("array size exceeds payload");
      }
      json::Array arr;
      arr.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        json::Value v;
        DJ_RETURN_IF_ERROR(DeserializeValueAt(bytes, pos, &v, depth + 1));
        arr.push_back(std::move(v));
      }
      *out = json::Value(std::move(arr));
      return Status::Ok();
    }
    case kTagObject: {
      uint64_t n = 0;
      if (!GetVarint(bytes, pos, &n)) {
        return Status::Corruption("truncated object size");
      }
      if (n > bytes.size() - *pos) {
        return Status::Corruption("object size exceeds payload");
      }
      json::Object obj;
      for (uint64_t i = 0; i < n; ++i) {
        std::string key;
        if (!GetString(bytes, pos, &key)) {
          return Status::Corruption("truncated object key");
        }
        json::Value v;
        DJ_RETURN_IF_ERROR(DeserializeValueAt(bytes, pos, &v, depth + 1));
        obj.Set(std::move(key), std::move(v));
      }
      *out = json::Value(std::move(obj));
      return Status::Ok();
    }
    default:
      return Status::Corruption("unknown value tag");
  }
}

/// Bumps the io.* row/byte counters and the seconds histogram on the
/// globally installed registry (no-op without one).
void RecordIoMetrics(const char* op, uint64_t rows, uint64_t bytes,
                     double seconds) {
  obs::MetricsRegistry* m = obs::GlobalMetrics();
  if (m == nullptr) return;
  // srclint-declare(counter): io.*
  // srclint-declare(histogram): io.*
  std::string prefix = std::string("io.") + op;
  m->GetCounter(prefix + ".rows")->Add(rows);
  m->GetCounter(prefix + ".bytes")->Add(bytes);
  m->GetHistogram(prefix + "_seconds")->Observe(seconds);
  // Which kernel level the data plane dispatched to (0=scalar .. 3=neon),
  // so metrics snapshots record the configuration a run measured.
  m->GetGauge("simd.kernel")->Set(swar::ActiveLevelMetric());
}

/// Splits `content` into up to `target_chunks` ranges, each cut right after
/// the first newline at or past an even byte target; a line longer than the
/// span between targets skips the targets it covers. Every byte lands in
/// exactly one range.
std::vector<std::string_view> SplitAtNewlines(std::string_view content,
                                              size_t target_chunks) {
  std::vector<std::string_view> chunks;
  size_t begin = 0;
  for (size_t i = 1; i < target_chunks && begin < content.size(); ++i) {
    size_t target = content.size() * i / target_chunks;
    if (target <= begin) continue;
    size_t cut = content.find('\n', target);
    if (cut == std::string_view::npos) break;
    chunks.push_back(content.substr(begin, cut + 1 - begin));
    begin = cut + 1;
  }
  if (begin < content.size()) chunks.push_back(content.substr(begin));
  return chunks;
}

/// Parses the lines of one chunk into `ds` with json::ParseStrict, blank
/// ones skipped. `*newlines` counts the newlines passed: all of the chunk's
/// when every line parses, else those before the failing line.
Status ParseJsonlChunk(std::string_view chunk, Dataset* ds, size_t* newlines) {
  for (size_t start = 0; start < chunk.size();) {
    const size_t eol =
        start + swar::FindByte(chunk.data() + start, chunk.size() - start,
                               '\n');
    std::string_view body =
        StripAsciiWhitespace(chunk.substr(start, eol - start));
    if (!body.empty()) {
      Result<json::Value> r = json::ParseStrict(body);
      if (!r.ok()) return r.status();
      if (!r.value().is_object()) {
        return Status::Corruption("expected an object");
      }
      // AppendSample copies every cell out of the temporary Sample. Moving
      // the cells in instead made fewer allocations but measured worse on
      // ingest_export (peak RSS +15%, throughput -4.9%; see
      // docs/performance.md), likely because the parser's strings keep the
      // spare capacity of their appends and a copy allocates exact sizes.
      ds->AppendSample(Sample(std::move(r.value().as_object())));
    }
    if (eol < chunk.size()) ++*newlines;
    start = eol + 1;
  }
  return Status::Ok();
}

/// Deterministic shard count for a dataset: one shard per kRowsPerShard
/// rows, capped. Depends only on the row count, never on the pool.
size_t AutoShardCount(size_t num_rows) {
  if (num_rows == 0) return 0;
  size_t shards = (num_rows + kRowsPerShard - 1) / kRowsPerShard;
  return std::min(shards, kMaxAutoShards);
}

/// Decodes a blob whose magic and version DeserializeDataset has checked.
Result<Dataset> DeserializeShards(std::string_view bytes, ThreadPool* pool) {
  size_t pos = 5;
  uint64_t num_rows = 0, num_cols = 0;
  if (!GetVarint(bytes, &pos, &num_rows) ||
      !GetVarint(bytes, &pos, &num_cols)) {
    return Status::Corruption("truncated DJDS header");
  }
  if (num_cols > bytes.size() - pos) {
    return Status::Corruption("DJDS column count exceeds payload");
  }
  std::vector<std::string> col_names;
  col_names.reserve(num_cols);
  for (uint64_t c = 0; c < num_cols; ++c) {
    std::string name;
    if (!GetString(bytes, &pos, &name)) {
      return Status::Corruption("truncated column name");
    }
    col_names.push_back(std::move(name));
  }
  uint64_t num_shards = 0;
  if (!GetVarint(bytes, &pos, &num_shards)) {
    return Status::Corruption("truncated DJDS shard count");
  }
  // Each shard table entry is >= 10 bytes (two varints + 8-byte checksum).
  if (num_shards > (bytes.size() - pos) / 10) {
    return Status::Corruption("DJDS shard table exceeds payload");
  }
  struct ShardEntry {
    size_t row_begin = 0;
    size_t row_count = 0;
    size_t offset = 0;
    size_t length = 0;
    uint64_t checksum = 0;
  };
  std::vector<ShardEntry> shards(num_shards);
  uint64_t rows_total = 0;
  uint64_t payload_total = 0;
  for (uint64_t s = 0; s < num_shards; ++s) {
    uint64_t row_count = 0, length = 0;
    if (!GetVarint(bytes, &pos, &row_count) ||
        !GetVarint(bytes, &pos, &length) ||
        !GetU64Fixed(bytes, &pos, &shards[s].checksum)) {
      return Status::Corruption("truncated DJDS shard table");
    }
    if (length > bytes.size() || row_count > num_rows) {
      return Status::Corruption("DJDS shard entry out of range");
    }
    shards[s].row_begin = static_cast<size_t>(rows_total);
    shards[s].row_count = static_cast<size_t>(row_count);
    shards[s].length = static_cast<size_t>(length);
    rows_total += row_count;
    payload_total += length;
    if (rows_total > num_rows || payload_total > bytes.size()) {
      return Status::Corruption("DJDS shard table out of range");
    }
  }
  if (rows_total != num_rows) {
    return Status::Corruption("DJDS shard rows do not sum to header rows");
  }
  // The shard checksums only cover payloads; this one covers everything
  // before it (magic, counts, column names, shard table).
  uint64_t header_checksum = 0;
  size_t header_end = pos;
  if (!GetU64Fixed(bytes, &pos, &header_checksum)) {
    return Status::Corruption("truncated DJDS header checksum");
  }
  if (swar::Hash64(bytes.data(), header_end) != header_checksum) {
    return Status::Corruption("DJDS header checksum mismatch");
  }
  if (pos + payload_total != bytes.size()) {
    return Status::Corruption("DJDS payload size mismatch");
  }
  size_t cursor = pos;
  for (auto& shard : shards) {
    shard.offset = cursor;
    cursor += shard.length;
  }

  // Decode shards concurrently, each into its own per-column cell vectors.
  std::vector<std::vector<std::vector<json::Value>>> shard_cols(num_shards);
  Status decoded = ForEachIndex(pool, num_shards, [&](size_t s) -> Status {
    std::string_view payload = bytes.substr(shards[s].offset,
                                            shards[s].length);
    if (swar::Hash64(payload.data(), payload.size()) != shards[s].checksum) {
      return Status::Corruption("DJDS shard checksum mismatch");
    }
    std::vector<std::vector<json::Value>> cols(col_names.size());
    size_t p = 0;
    for (size_t c = 0; c < col_names.size(); ++c) {
      cols[c].reserve(shards[s].row_count);
      for (size_t r = 0; r < shards[s].row_count; ++r) {
        json::Value v;
        DJ_RETURN_IF_ERROR(DeserializeValueAt(payload, &p, &v, 1));
        cols[c].push_back(std::move(v));
      }
    }
    if (p != payload.size()) {
      return Status::Corruption("trailing bytes in DJDS shard");
    }
    shard_cols[s] = std::move(cols);
    return Status::Ok();
  });
  DJ_SCHED_POINT("io.shard.gather");
  DJ_RETURN_IF_ERROR(decoded);

  // Ordered gather: move shard cells into whole columns.
  std::vector<std::vector<json::Value>> cols(col_names.size());
  for (size_t c = 0; c < col_names.size(); ++c) {
    cols[c].reserve(num_rows);
    for (size_t s = 0; s < num_shards; ++s) {
      auto& cells = shard_cols[s][c];
      cols[c].insert(cols[c].end(), std::make_move_iterator(cells.begin()),
                     std::make_move_iterator(cells.end()));
    }
  }
  return Dataset::FromColumns(std::move(col_names), std::move(cols));
}

}  // namespace

Result<std::string> ReadFile(const std::string& path) {
  if (DJ_FAULT("io.read.fail")) {
    return Status::IoError("fault injected: io.read.fail on '" + path + "'");
  }
  auto content = ReadFileToString(path);
  if (content.ok() && !content.value().empty() &&
      DJ_FAULT("io.read.corrupt")) {
    // Simulated bit rot between write and read: flip one mid-file byte so
    // the container checksums (DJDS header/shard, djlz block) must catch it.
    std::string corrupted = std::move(content).value();
    corrupted[corrupted.size() / 2] =
        static_cast<char>(corrupted[corrupted.size() / 2] ^ 0x5A);
    return corrupted;
  }
  return content;
}

namespace {

/// `write(path, content)` behind the io.write.* fail points.
Status WriteProbed(const std::string& path, std::string_view content,
                   Status (*write)(const std::string&, std::string_view)) {
  if (DJ_FAULT("io.write.fail")) {
    return Status::IoError("fault injected: io.write.fail on '" + path + "'");
  }
  if (DJ_FAULT("io.write.short")) {
    // Torn write: persist only a prefix and report success — the crash that
    // truncated the file is only discoverable on the read path, which is
    // exactly what the container formats must survive.
    return write(path, content.substr(0, content.size() * 2 / 3));
  }
  return write(path, content);
}

}  // namespace

Status WriteFile(const std::string& path, std::string_view content) {
  return WriteProbed(path, content, WriteStringToFile);
}

Status WriteFileAtomic(const std::string& path, std::string_view content) {
  return WriteProbed(path, content, WriteStringToFileAtomic);
}

Result<Dataset> ParseJsonl(std::string_view content, ThreadPool* pool) {
  DJ_OBS_SPAN("io.parse_jsonl");
  Stopwatch watch;
  const std::vector<std::string_view> chunks = SplitAtNewlines(
      content,
      content.size() < kParallelParseThreshold ? 1 : PoolWidth(pool));
  std::vector<Dataset> parts(chunks.size());
  std::vector<Status> errors(chunks.size(), Status::Ok());
  std::vector<size_t> newlines(chunks.size(), 0);
  ParallelFor(pool, chunks.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      errors[i] = ParseJsonlChunk(chunks[i], &parts[i], &newlines[i]);
    }
  });
  DJ_SCHED_POINT("io.parse.gather");
  // Every chunk but the last ends right after a newline, so the lines
  // before chunk i are the newlines of the chunks before it. The earliest
  // failing line wins, as in a serial parse.
  size_t lines_before = 0;
  for (size_t i = 0; i < chunks.size(); ++i) {
    lines_before += newlines[i];
    if (!errors[i].ok()) {
      return Status::Corruption("jsonl line " +
                                std::to_string(lines_before + 1) + ": " +
                                errors[i].message());
    }
  }
  Dataset out = parts.empty() ? Dataset() : std::move(parts.front());
  for (size_t i = 1; i < parts.size(); ++i) out.Concat(std::move(parts[i]));
  RecordIoMetrics("parse", out.NumRows(), content.size(),
                  watch.ElapsedSeconds());
  return out;
}

Result<Dataset> ReadJsonl(const std::string& path, ThreadPool* pool) {
  DJ_ASSIGN_OR_RETURN(std::string content, ReadFile(path));
  auto r = ParseJsonl(content, pool);
  if (!r.ok()) {
    return Status::Corruption(path + ": " + r.status().message());
  }
  return r;
}

std::string ToJsonl(const Dataset& dataset, ThreadPool* pool) {
  DJ_OBS_SPAN("io.to_jsonl");
  Stopwatch watch;
  const size_t rows = dataset.NumRows();
  // Rows are written straight from the columns: non-null cells in column
  // order, exactly what MaterializeRow would collect — minus the Object
  // copy and the per-row temporary string. Keys are escaped once up front.
  const std::vector<std::string> names = dataset.ColumnNames();
  std::vector<const std::vector<json::Value>*> cols;
  cols.reserve(names.size());
  std::vector<std::string> keys;
  keys.reserve(names.size());
  for (const std::string& name : names) {
    cols.push_back(dataset.Column(name));
    std::string key;
    json::EscapeStringTo(name, &key);
    key.push_back(':');
    keys.push_back(std::move(key));
  }
  auto stringify_rows = [&](size_t begin, size_t end, std::string* out) {
    for (size_t i = begin; i < end; ++i) {
      out->push_back('{');
      bool first = true;
      for (size_t c = 0; c < cols.size(); ++c) {
        const json::Value& v = (*cols[c])[i];
        if (v.is_null()) continue;
        if (!first) out->push_back(',');
        first = false;
        out->append(keys[c]);
        json::WriteTo(v, out);
      }
      out->push_back('}');
      out->push_back('\n');
    }
  };
  // Reserve from a sampled row-size estimate so buffers grow once, not per
  // append. A few rows spread across the dataset bound the typical size.
  size_t est_row_bytes = 2;
  if (rows > 0) {
    std::string probe;
    const size_t samples = std::min<size_t>(rows, 4);
    for (size_t s = 0; s < samples; ++s) {
      stringify_rows(s * (rows / samples), s * (rows / samples) + 1, &probe);
    }
    est_row_bytes = probe.size() / samples + 16;
  }
  // Fixed chunking (independent of scheduling) + ordered gather. At width
  // 1 the one chunk is the output.
  const size_t width = PoolWidth(pool);
  const size_t chunks = std::min(rows, width > 1 ? width * 4 : 1);
  const size_t per = chunks == 0 ? 0 : (rows + chunks - 1) / chunks;
  std::vector<std::string> parts(chunks);
  ParallelFor(pool, chunks, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      const size_t row_begin = c * per;
      const size_t row_end = std::min(rows, (c + 1) * per);
      if (row_begin >= row_end) continue;
      parts[c].reserve(est_row_bytes * (row_end - row_begin) + 64);
      stringify_rows(row_begin, row_end, &parts[c]);
    }
  });
  DJ_SCHED_POINT("io.to_jsonl.gather");
  std::string out;
  if (parts.size() == 1) {
    out = std::move(parts.front());
  } else {
    size_t total = 0;
    for (const std::string& p : parts) total += p.size();
    out.reserve(total);
    for (const std::string& p : parts) out += p;
  }
  RecordIoMetrics("to_jsonl", rows, out.size(), watch.ElapsedSeconds());
  return out;
}

Status WriteJsonl(const Dataset& dataset, const std::string& path,
                  ThreadPool* pool) {
  return WriteFile(path, ToJsonl(dataset, pool));
}

void SerializeValue(const json::Value& v, std::string* out) {
  const size_t at = out->size();
  out->resize(at + EncodedSize(v));
  EncodeValue(v, out->data() + at);
}

Result<json::Value> DeserializeValue(std::string_view bytes) {
  size_t pos = 0;
  json::Value v;
  DJ_RETURN_IF_ERROR(DeserializeValueAt(bytes, &pos, &v, 0));
  if (pos != bytes.size()) {
    return Status::Corruption("trailing bytes after value");
  }
  return v;
}

std::string SerializeDataset(const Dataset& dataset, ThreadPool* pool,
                             size_t num_shards) {
  DJ_OBS_SPAN("io.serialize_dataset");
  Stopwatch watch;
  const size_t num_rows = dataset.NumRows();
  if (num_shards == 0) {
    num_shards = AutoShardCount(num_rows);
  } else {
    num_shards = std::max<size_t>(std::min(num_shards, num_rows),
                                  num_rows == 0 ? 0 : 1);
  }
  const std::vector<std::string> names = dataset.ColumnNames();
  std::vector<const std::vector<json::Value>*> columns;
  columns.reserve(names.size());
  for (const std::string& name : names) columns.push_back(dataset.Column(name));
  // Even row partition: shard i covers base + (i < rem ? 1 : 0) rows.
  const size_t base = num_shards == 0 ? 0 : num_rows / num_shards;
  const size_t rem = num_shards == 0 ? 0 : num_rows % num_shards;
  std::vector<size_t> row_begin(num_shards + 1, 0);
  for (size_t s = 0; s < num_shards; ++s) {
    row_begin[s + 1] = row_begin[s] + base + (s < rem ? 1 : 0);
  }

  // A shard's payload is its columns in order, each a run of its rows'
  // cells. Pieces cut that run into (column, row range) spans in payload
  // order, so a one-shard blob still sizes and encodes at pool width.
  struct Piece {
    size_t column = 0;
    size_t row_begin = 0;
    size_t row_end = 0;
    size_t size = 0;    ///< encoded bytes, from the sizing pass
    size_t offset = 0;  ///< where those bytes go in the blob
  };
  std::vector<Piece> pieces;
  std::vector<size_t> shard_pieces(num_shards + 1, 0);  // first of shard s
  for (size_t s = 0; s < num_shards; ++s) {
    for (size_t c = 0; c < columns.size(); ++c) {
      for (size_t r = row_begin[s]; r < row_begin[s + 1];
           r += kRowsPerPiece) {
        pieces.push_back(
            {c, r, std::min(r + kRowsPerPiece, row_begin[s + 1])});
      }
    }
    shard_pieces[s + 1] = pieces.size();
  }
  ParallelFor(pool, pieces.size(), [&](size_t begin, size_t end) {
    for (size_t p = begin; p < end; ++p) {
      const std::vector<json::Value>& cells = *columns[pieces[p].column];
      size_t size = 0;
      for (size_t r = pieces[p].row_begin; r < pieces[p].row_end; ++r) {
        size += EncodedSize(cells[r]);
      }
      pieces[p].size = size;
    }
  });
  DJ_SCHED_POINT("io.shard.gather");

  // The header's size follows from the counts, names and payload lengths,
  // so every offset is a prefix sum and the blob is allocated once.
  std::vector<size_t> payload_len(num_shards, 0);
  for (size_t s = 0; s < num_shards; ++s) {
    for (size_t p = shard_pieces[s]; p < shard_pieces[s + 1]; ++p) {
      payload_len[s] += pieces[p].size;
    }
  }
  size_t header_len = sizeof(kDatasetMagic) + 1 + VarintSize(num_rows) +
                      VarintSize(names.size()) + VarintSize(num_shards) + 8;
  for (const std::string& name : names) header_len += StringSize(name);
  for (size_t s = 0; s < num_shards; ++s) {
    header_len += VarintSize(row_begin[s + 1] - row_begin[s]) +
                  VarintSize(payload_len[s]) + 8;
  }
  std::vector<size_t> payload_at(num_shards, 0);
  size_t cursor = header_len;
  for (size_t s = 0; s < num_shards; ++s) {
    payload_at[s] = cursor;
    for (size_t p = shard_pieces[s]; p < shard_pieces[s + 1]; ++p) {
      pieces[p].offset = cursor;
      cursor += pieces[p].size;
    }
  }
  std::string out(cursor, '\0');

  ParallelFor(pool, pieces.size(), [&](size_t begin, size_t end) {
    for (size_t p = begin; p < end; ++p) {
      const std::vector<json::Value>& cells = *columns[pieces[p].column];
      char* dst = out.data() + pieces[p].offset;
      for (size_t r = pieces[p].row_begin; r < pieces[p].row_end; ++r) {
        dst = EncodeValue(cells[r], dst);
      }
    }
  });
  DJ_SCHED_POINT("io.shard.gather");
  std::vector<uint64_t> payload_hash(num_shards, 0);
  ParallelFor(pool, num_shards, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      payload_hash[s] =
          swar::Hash64(out.data() + payload_at[s], payload_len[s]);
    }
  });
  DJ_SCHED_POINT("io.shard.gather");

  // The header goes last: its shard table holds the payload checksums, and
  // its own checksum covers everything before it.
  char* dst = out.data();
  std::memcpy(dst, kDatasetMagic, sizeof(kDatasetMagic));
  dst += sizeof(kDatasetMagic);
  *dst++ = static_cast<char>(kDatasetVersion);
  dst = PutVarint(num_rows, dst);
  dst = PutVarint(names.size(), dst);
  for (const std::string& name : names) dst = PutString(name, dst);
  dst = PutVarint(num_shards, dst);
  for (size_t s = 0; s < num_shards; ++s) {
    dst = PutVarint(row_begin[s + 1] - row_begin[s], dst);
    dst = PutVarint(payload_len[s], dst);
    dst = PutU64Fixed(payload_hash[s], dst);
  }
  PutU64Fixed(swar::Hash64(out.data(), static_cast<size_t>(dst - out.data())),
              dst);
  RecordIoMetrics("serialize", num_rows, out.size(), watch.ElapsedSeconds());
  return out;
}

Result<Dataset> DeserializeDataset(std::string_view bytes, ThreadPool* pool) {
  DJ_OBS_SPAN("io.deserialize_dataset");
  Stopwatch watch;
  if (bytes.size() < 5 || std::memcmp(bytes.data(), kDatasetMagic, 4) != 0) {
    return Status::Corruption("not a DJDS dataset blob");
  }
  const uint8_t version = static_cast<uint8_t>(bytes[4]);
  if (version != kDatasetVersion) {
    return Status::Corruption("unsupported DJDS version " +
                              std::to_string(version) + " (expected " +
                              std::to_string(kDatasetVersion) + ")");
  }
  Result<Dataset> out = DeserializeShards(bytes, pool);
  if (out.ok()) {
    RecordIoMetrics("deserialize", out.value().NumRows(), bytes.size(),
                    watch.ElapsedSeconds());
  }
  return out;
}

Status ExportDataset(const Dataset& dataset, const std::string& path,
                     ThreadPool* pool) {
  if (EndsWith(path, ".jsonl")) return WriteJsonl(dataset, path, pool);
  if (EndsWith(path, ".djds.djlz")) {
    return WriteFile(
        path, compress::CompressFrame(SerializeDataset(dataset, pool), pool));
  }
  if (EndsWith(path, ".djds")) {
    return WriteFile(path, SerializeDataset(dataset, pool));
  }
  return Status::InvalidArgument(
      "unsupported export suffix for '" + path +
      "' (use .jsonl, .djds, or .djds.djlz)");
}

Result<Dataset> ImportDataset(const std::string& path, ThreadPool* pool) {
  if (EndsWith(path, ".jsonl")) return ReadJsonl(path, pool);
  if (EndsWith(path, ".djds.djlz")) {
    DJ_ASSIGN_OR_RETURN(std::string frame, ReadFile(path));
    DJ_ASSIGN_OR_RETURN(std::string blob,
                        compress::DecompressFrame(frame, pool));
    return DeserializeDataset(blob, pool);
  }
  if (EndsWith(path, ".djds")) {
    DJ_ASSIGN_OR_RETURN(std::string blob, ReadFile(path));
    return DeserializeDataset(blob, pool);
  }
  return Status::InvalidArgument(
      "unsupported import suffix for '" + path +
      "' (use .jsonl, .djds, or .djds.djlz)");
}

}  // namespace dj::data
