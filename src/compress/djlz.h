#ifndef DJ_COMPRESS_DJLZ_H_
#define DJ_COMPRESS_DJLZ_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/thread_pool.h"

namespace dj::compress {

/// From-scratch LZ77 byte codec in the LZ4 block tradition: token byte with
/// literal-run / match-length nibbles, 16-bit match offsets, greedy
/// hash-table matching. Stands in for zstd/LZ4 cache compression (paper
/// Sec. 7): fast, byte-exact, good enough ratios on JSONL text.
///
/// Block layout per token:
///   [token: hi nibble = literal len (15 => extension bytes),
///           lo nibble = match len - 4 (15 => extension bytes)]
///   [literal length extension: bytes of 255 + terminator]
///   [literals]
///   [offset: 2 bytes little-endian, 1..65535]   (absent in the final token)
///   [match length extension]
std::string CompressBlock(std::string_view input);

/// Inverse of CompressBlock. `expected_size` must be the original size.
Result<std::string> DecompressBlock(std::string_view block,
                                    size_t expected_size);

/// Uncompressed bytes per frame block. Fixed so the frame layout — and
/// therefore the compressed bytes — never depend on the pool width.
constexpr size_t kFrameBlockSize = 1u << 20;

/// Framed API. CompressFrame writes version 3: magic + version + raw size +
/// a block table (per-block compressed size + swar::Hash64 of the
/// compressed block, checked before the block is decompressed) + the
/// independently compressed ~1 MiB blocks. Blocks compress and decompress
/// on `pool` when given; output is byte-identical with or without a pool.
/// DecompressFrame reads version 3 only: any other version byte (1 was a
/// single block written before the block table existed, 2 the same layout
/// with an FNV-1a checksum of each raw block) is a Corruption error naming
/// it. This is what the cache layer writes to disk.
std::string CompressFrame(std::string_view input, ThreadPool* pool = nullptr);
Result<std::string> DecompressFrame(std::string_view frame,
                                    ThreadPool* pool = nullptr);

/// Returns true if `data` starts with the djlz frame magic.
bool IsFrame(std::string_view data);

}  // namespace dj::compress

#endif  // DJ_COMPRESS_DJLZ_H_
