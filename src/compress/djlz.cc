#include "compress/djlz.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/probe.h"
#include "common/stopwatch.h"
#include "common/swar.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace dj::compress {
namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
// 14 bits keeps the probe table (kHashSize * kProbes * 4B = 256 KiB) inside
// L2; 15 bits finds marginally more matches but the extra cache misses cost
// ~25% wall time on the bench corpus.
constexpr int kHashBits = 14;
constexpr size_t kHashSize = 1u << kHashBits;
/// Candidate positions kept per hash bucket, newest first. More probes find
/// longer matches (better ratio, fewer sequences) at a small search cost.
constexpr size_t kProbes = 4;
constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;

/// Hashes the 5 bytes at `p` (requires 8 readable bytes). Five bytes
/// discriminate better than four on JSON-ish text, where 4-byte windows
/// like `": "` repeat constantly and pollute the table.
inline uint32_t Hash5(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return static_cast<uint32_t>(
      ((v & 0xFFFFFFFFFFull) * 0x9E3779B185EBCA87ull) >> (64 - kHashBits));
}

void EmitLength(size_t len, std::string* out) {
  while (len >= 255) {
    out->push_back(static_cast<char>(255));
    len -= 255;
  }
  out->push_back(static_cast<char>(len));
}

void EmitSequence(const uint8_t* lit, size_t lit_len, size_t match_len,
                  size_t offset, bool last, std::string* out) {
  uint8_t token = 0;
  size_t lit_nibble = lit_len >= 15 ? 15 : lit_len;
  token |= static_cast<uint8_t>(lit_nibble << 4);
  size_t match_code = 0;
  if (!last) {
    match_code = match_len - kMinMatch;
    token |= static_cast<uint8_t>(match_code >= 15 ? 15 : match_code);
  }
  out->push_back(static_cast<char>(token));
  if (lit_nibble == 15) EmitLength(lit_len - 15, out);
  out->append(reinterpret_cast<const char*>(lit), lit_len);
  if (last) return;
  out->push_back(static_cast<char>(offset & 0xFF));
  out->push_back(static_cast<char>((offset >> 8) & 0xFF));
  if (match_code >= 15) EmitLength(match_code - 15, out);
}

constexpr char kFrameMagic[4] = {'D', 'J', 'L', 'Z'};
// The only frame version read or written. Block checksums are
// swar::Hash64 over the *compressed* block bytes: that touches ~5x fewer
// bytes than hashing the raw side at this format's typical ratio, and lets
// the reader reject a corrupt block before decompressing it. Versions 1
// (one block) and 2 (FNV-1a over raw blocks) are rejected.
constexpr uint8_t kFrameVersion = 3;

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

/// Bumps the io.* byte counters and the seconds histogram on the globally
/// installed registry (no-op without one).
void RecordIoMetrics(const char* op, uint64_t bytes_in, uint64_t bytes_out,
                     double seconds) {
  obs::MetricsRegistry* m = obs::GlobalMetrics();
  if (m == nullptr) return;
  // srclint-declare(counter): io.*
  // srclint-declare(histogram): io.*
  std::string prefix = std::string("io.") + op;
  m->GetCounter(prefix + ".bytes_in")->Add(bytes_in);
  m->GetCounter(prefix + ".bytes_out")->Add(bytes_out);
  m->GetHistogram(prefix + "_seconds")->Observe(seconds);
  // Which kernel level the data plane dispatched to (0=scalar .. 3=neon).
  m->GetGauge("simd.kernel")->Set(swar::ActiveLevelMetric());
}

}  // namespace

std::string CompressBlock(std::string_view input) {
  std::string out;
  const size_t n = input.size();
  const auto* src = reinterpret_cast<const uint8_t*>(input.data());
  // Below 9 bytes there is no position where the 8-byte hash load is in
  // bounds; emit a pure-literal block.
  if (n < 9) {
    EmitSequence(src, n, 0, 0, /*last=*/true, &out);
    return out;
  }
  // Worst case (all literals) is n + n/255 run-length bytes + token slack.
  // Sizing the buffer once and emitting through a raw cursor removes the
  // per-byte capacity checks that push_back/append pay; a final resize
  // trims to the bytes actually written.
  out.resize(n + n / 255 + 32);
  auto* const out_begin = reinterpret_cast<uint8_t*>(out.data());
  uint8_t* op = out_begin;

  auto emit = [&](const uint8_t* lit, size_t lit_len, size_t match_len,
                  size_t offset, bool last) {
    uint8_t* token_at = op++;
    const size_t lit_nibble = lit_len >= 15 ? 15 : lit_len;
    uint8_t token = static_cast<uint8_t>(lit_nibble << 4);
    if (lit_nibble == 15) {
      size_t rest = lit_len - 15;
      while (rest >= 255) {
        *op++ = 255;
        rest -= 255;
      }
      *op++ = static_cast<uint8_t>(rest);
    }
    std::memcpy(op, lit, lit_len);
    op += lit_len;
    if (!last) {
      const size_t match_code = match_len - kMinMatch;
      token |= static_cast<uint8_t>(match_code >= 15 ? 15 : match_code);
      *op++ = static_cast<uint8_t>(offset & 0xFF);
      *op++ = static_cast<uint8_t>((offset >> 8) & 0xFF);
      if (match_code >= 15) {
        size_t rest = match_code - 15;
        while (rest >= 255) {
          *op++ = 255;
          rest -= 255;
        }
        *op++ = static_cast<uint8_t>(rest);
      }
    }
    *token_at = token;
  };

  // Multi-probe match table, kProbes most-recent positions per bucket
  // (newest in slot 0). thread_local so parallel block compression reuses
  // one allocation per pool thread instead of building a table per block.
  thread_local std::vector<uint32_t> table;
  table.assign(kHashSize * kProbes, kEmptySlot);

  size_t pos = 0;
  size_t lit_start = 0;
  // Last position where the 8-byte hash load stays in bounds.
  const size_t hash_limit = n - 8;
  while (pos <= hash_limit) {
    uint32_t* bucket = &table[static_cast<size_t>(Hash5(src + pos)) * kProbes];
    size_t best_len = 0;
    size_t best_cand = 0;
    uint32_t cur4;
    std::memcpy(&cur4, src + pos, 4);
    for (size_t probe = 0; probe < kProbes; ++probe) {
      const uint32_t cand = bucket[probe];
      // Slots fill front-to-back and age back-to-front, so the first empty
      // or out-of-range slot ends the scan.
      if (cand == kEmptySlot || pos - cand > kMaxOffset) break;
      if (best_len != 0) {
        // Guard byte: a candidate can only beat best_len if it also matches
        // at that length, so one compare filters most probes before the
        // (comparatively costly) full extension. pos + best_len == n means
        // the current best already reaches end of block and cannot be beat.
        if (pos + best_len >= n ||
            src[cand + best_len] != src[pos + best_len]) {
          continue;
        }
      }
      uint32_t cand4;
      std::memcpy(&cand4, src + cand, 4);
      if (cand4 != cur4) continue;
      const size_t len =
          kMinMatch + swar::MatchLength(src + cand + kMinMatch,
                                        src + pos + kMinMatch,
                                        n - pos - kMinMatch);
      // Strict > keeps the earliest (nearest) slot on ties: smaller offset,
      // same encoded size.
      if (len > best_len) {
        best_len = len;
        best_cand = cand;
      }
    }
    bucket[3] = bucket[2];
    bucket[2] = bucket[1];
    bucket[1] = bucket[0];
    bucket[0] = static_cast<uint32_t>(pos);
    if (best_len >= kMinMatch) {
      emit(src + lit_start, pos - lit_start, best_len, pos - best_cand,
           /*last=*/false);
      const size_t end = pos + best_len;
      // One refresh near the match tail keeps the table current across the
      // skipped span; inserting every few positions costs more than the
      // matches it finds on this corpus.
      if (end >= 3 && end - 2 + 8 <= n) {
        uint32_t* b =
            &table[static_cast<size_t>(Hash5(src + (end - 2))) * kProbes];
        b[3] = b[2];
        b[2] = b[1];
        b[1] = b[0];
        b[0] = static_cast<uint32_t>(end - 2);
      }
      pos = end;
      lit_start = pos;
    } else {
      // Literal skip acceleration: the longer the current literal run, the
      // bigger the step — incompressible stretches stop paying per byte.
      pos += 1 + ((pos - lit_start) >> 6);
    }
  }
  emit(src + lit_start, n - lit_start, 0, 0, /*last=*/true);
  out.resize(static_cast<size_t>(op - out_begin));
  return out;
}

Result<std::string> DecompressBlock(std::string_view block,
                                    size_t expected_size) {
  std::string out;
  out.reserve(expected_size);
  const auto* p = reinterpret_cast<const uint8_t*>(block.data());
  const uint8_t* end = p + block.size();

  auto read_length = [&](size_t base) -> Result<size_t> {
    size_t len = base;
    if (base == 15) {
      while (true) {
        if (p >= end) return Status::Corruption("djlz: truncated length");
        uint8_t b = *p++;
        len += b;
        if (b != 255) break;
      }
    }
    return len;
  };

  while (p < end) {
    uint8_t token = *p++;
    DJ_ASSIGN_OR_RETURN(size_t lit_len, read_length(token >> 4));
    if (static_cast<size_t>(end - p) < lit_len) {
      return Status::Corruption("djlz: truncated literals");
    }
    out.append(reinterpret_cast<const char*>(p), lit_len);
    p += lit_len;
    if (p >= end) break;  // final token has no match part
    if (end - p < 2) return Status::Corruption("djlz: truncated offset");
    size_t offset = static_cast<size_t>(p[0]) | (static_cast<size_t>(p[1]) << 8);
    p += 2;
    if (offset == 0 || offset > out.size()) {
      return Status::Corruption("djlz: bad match offset");
    }
    DJ_ASSIGN_OR_RETURN(size_t match_code, read_length(token & 0x0F));
    size_t match_len = match_code + kMinMatch;
    // Overlap-safe wordwise copy; offset < length is legal and encodes runs.
    swar::AppendMatch(&out, offset, match_len);
  }
  if (out.size() != expected_size) {
    return Status::Corruption("djlz: size mismatch (got " +
                              std::to_string(out.size()) + ", want " +
                              std::to_string(expected_size) + ")");
  }
  return out;
}

std::string CompressFrame(std::string_view input, ThreadPool* pool) {
  DJ_OBS_SPAN("io.compress_frame");
  Stopwatch watch;
  const size_t num_blocks =
      (input.size() + kFrameBlockSize - 1) / kFrameBlockSize;
  std::vector<std::string> blocks(num_blocks);
  std::vector<uint64_t> checksums(num_blocks, 0);
  auto compress_range = [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      std::string_view raw = input.substr(
          b * kFrameBlockSize,
          std::min(kFrameBlockSize, input.size() - b * kFrameBlockSize));
      blocks[b] = CompressBlock(raw);
      checksums[b] = swar::Hash64(blocks[b]);
    }
  };
  ParallelFor(pool, num_blocks, compress_range);
  DJ_SCHED_POINT("djlz.compress.gather");
  size_t payload = 0;
  for (const std::string& b : blocks) payload += b.size();
  std::string frame;
  frame.reserve(21 + num_blocks * 16 + payload);
  frame.append(kFrameMagic, 4);
  frame.push_back(static_cast<char>(kFrameVersion));
  PutU64(input.size(), &frame);
  PutU64(num_blocks, &frame);
  for (size_t b = 0; b < num_blocks; ++b) {
    PutU64(blocks[b].size(), &frame);
    PutU64(checksums[b], &frame);
  }
  for (const std::string& b : blocks) frame.append(b);
  RecordIoMetrics("compress", input.size(), frame.size(),
                  watch.ElapsedSeconds());
  return frame;
}

bool IsFrame(std::string_view data) {
  return data.size() >= 4 && std::memcmp(data.data(), kFrameMagic, 4) == 0;
}

Result<std::string> DecompressFrame(std::string_view frame, ThreadPool* pool) {
  DJ_OBS_SPAN("io.decompress_frame");
  Stopwatch watch;
  if (frame.size() < 5 || !IsFrame(frame)) {
    return Status::Corruption("djlz: not a frame");
  }
  std::string faulted;
  if (frame.size() > 29 && DJ_FAULT("compress.frame.corrupt")) {
    // Simulated corruption reaching the decompressor: flip one payload byte
    // past the header so a block checksum must reject the frame.
    faulted.assign(frame);
    faulted[faulted.size() - 2] =
        static_cast<char>(faulted[faulted.size() - 2] ^ 0x10);
    frame = faulted;
  }
  const auto* p = reinterpret_cast<const uint8_t*>(frame.data());
  if (p[4] != kFrameVersion) {
    return Status::Corruption("djlz: unsupported frame version " +
                              std::to_string(p[4]) + " (expected " +
                              std::to_string(kFrameVersion) + ")");
  }
  if (frame.size() < 21) return Status::Corruption("djlz: truncated header");
  uint64_t raw_size = GetU64(p + 5);
  uint64_t num_blocks = GetU64(p + 13);
  // Each table entry is 16 bytes; bound num_blocks by the actual frame size
  // before sizing anything from it (adversarial counts must not allocate).
  if (num_blocks > (frame.size() - 21) / 16) {
    return Status::Corruption("djlz: block table exceeds frame");
  }
  uint64_t expected_blocks =
      (raw_size + kFrameBlockSize - 1) / kFrameBlockSize;
  if (num_blocks != expected_blocks) {
    return Status::Corruption("djlz: block count/raw size mismatch");
  }
  size_t pos = 21;
  std::vector<size_t> block_sizes(num_blocks);
  std::vector<uint64_t> checksums(num_blocks);
  uint64_t payload = 0;
  for (uint64_t b = 0; b < num_blocks; ++b) {
    uint64_t size = GetU64(p + pos);
    checksums[b] = GetU64(p + pos + 8);
    pos += 16;
    if (size > frame.size()) {
      return Status::Corruption("djlz: block size exceeds frame");
    }
    block_sizes[b] = static_cast<size_t>(size);
    payload += size;
    if (payload > frame.size()) {
      return Status::Corruption("djlz: block sizes exceed frame");
    }
  }
  if (pos + payload != frame.size()) {
    return Status::Corruption("djlz: frame size mismatch");
  }
  std::vector<size_t> offsets(num_blocks);
  size_t cursor = pos;
  for (uint64_t b = 0; b < num_blocks; ++b) {
    offsets[b] = cursor;
    cursor += block_sizes[b];
  }
  std::vector<std::string> raws(num_blocks);
  Status decompressed = ForEachIndex(pool, num_blocks, [&](size_t b) {
    std::string_view block = frame.substr(offsets[b], block_sizes[b]);
    // The checksum covers the compressed bytes, so corruption is caught
    // before the decompressor ever sees the block.
    if (swar::Hash64(block.data(), block.size()) != checksums[b]) {
      return Status::Corruption("djlz: block checksum mismatch");
    }
    size_t want = std::min(kFrameBlockSize,
                           static_cast<size_t>(raw_size) - b * kFrameBlockSize);
    DJ_ASSIGN_OR_RETURN(raws[b], DecompressBlock(block, want));
    return Status::Ok();
  });
  DJ_SCHED_POINT("djlz.decompress.gather");
  DJ_RETURN_IF_ERROR(decompressed);
  std::string out;
  out.reserve(raw_size);
  for (std::string& r : raws) out.append(r);
  RecordIoMetrics("decompress", frame.size(), out.size(),
                  watch.ElapsedSeconds());
  return out;
}

}  // namespace dj::compress
