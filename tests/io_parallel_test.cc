// Tests for the parallel data plane: chunked JSONL parse/serialize, the
// sharded DJDS v3 container, and the block-parallel djlz frame. The central
// property throughout is determinism — a pool must never change the bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/probe.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "compress/djlz.h"
#include "data/dataset.h"
#include "data/io.h"
#include "json/value.h"

namespace dj::data {
namespace {

/// Random dataset with mixed cell types (nulls, bools, ints, doubles,
/// strings, nested arrays/objects) across `cols` columns.
Dataset RandomDataset(Rng* rng, size_t rows, size_t cols) {
  Dataset ds;
  for (size_t r = 0; r < rows; ++r) {
    json::Object fields;
    for (size_t c = 0; c < cols; ++c) {
      std::string name = "col" + std::to_string(c);
      switch (rng->NextBelow(7)) {
        case 0:
          fields.Set(name, json::Value(nullptr));
          break;
        case 1:
          fields.Set(name, json::Value(rng->NextBelow(2) == 0));
          break;
        case 2:
          fields.Set(name, json::Value(static_cast<int64_t>(rng->Next())));
          break;
        case 3:
          fields.Set(name, json::Value(rng->NextDouble() * 1e6));
          break;
        case 4: {
          std::string s;
          size_t len = rng->NextBelow(40);
          for (size_t i = 0; i < len; ++i) {
            s.push_back(static_cast<char>('a' + rng->NextBelow(26)));
          }
          fields.Set(name, json::Value(std::move(s)));
          break;
        }
        case 5: {
          json::Array arr;
          size_t len = rng->NextBelow(5);
          for (size_t i = 0; i < len; ++i) {
            arr.push_back(json::Value(static_cast<int64_t>(rng->NextBelow(100))));
          }
          fields.Set(name, json::Value(std::move(arr)));
          break;
        }
        default: {
          json::Object nested;
          nested.Set("k", json::Value(static_cast<int64_t>(rng->NextBelow(10))));
          fields.Set(name, json::Value(std::move(nested)));
          break;
        }
      }
    }
    ds.AppendSample(Sample(std::move(fields)));
  }
  return ds;
}

/// Canonical byte form for dataset equality (the auto shard count depends
/// only on the row count, so it is a stable fingerprint that includes nulls
/// and column order).
std::string Fingerprint(const Dataset& ds) { return SerializeDataset(ds); }

// ------------------------------------------------------------ DJDS v3 ----

TEST(DjdsV2Test, RoundTripRandomDatasetsAcrossShardCounts) {
  Rng rng(7);
  ThreadPool pool(4);
  for (size_t rows : {0u, 1u, 2u, 17u, 100u, 1000u}) {
    Dataset ds = RandomDataset(&rng, rows, 4);
    for (size_t shards : {0u, 1u, 2u, 3u, 7u, 64u}) {
      std::string blob = SerializeDataset(ds, nullptr, shards);
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        auto back = DeserializeDataset(blob, p);
        ASSERT_TRUE(back.ok()) << back.status().ToString()
                               << " rows=" << rows << " shards=" << shards;
        EXPECT_EQ(Fingerprint(back.value()), Fingerprint(ds));
        EXPECT_EQ(back.value().ColumnNames(), ds.ColumnNames());
      }
    }
  }
}

TEST(DjdsV2Test, SerialAndParallelSerializationAreByteIdentical) {
  Rng rng(11);
  Dataset ds = RandomDataset(&rng, 5000, 3);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  std::string serial = SerializeDataset(ds);
  EXPECT_EQ(SerializeDataset(ds, &pool2), serial);
  EXPECT_EQ(SerializeDataset(ds, &pool8), serial);
  // Explicit shard counts are deterministic too.
  EXPECT_EQ(SerializeDataset(ds, &pool8, 5), SerializeDataset(ds, nullptr, 5));
}

TEST(DjdsV2Test, AutoShardCountScalesWithRows) {
  Rng rng(13);
  // 5000 rows => 3 shards at 2048 rows/shard; verify multi-shard layout by
  // deserializing and comparing, and that 1-row stays single-shard.
  Dataset big = RandomDataset(&rng, 5000, 2);
  std::string blob = SerializeDataset(big);
  auto back = DeserializeDataset(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(Fingerprint(back.value()), Fingerprint(big));
}

TEST(DjdsV2Test, OlderBlobAndFrameVersionsAreRejected) {
  // Only version 3 is read: a v3 blob or djlz frame whose version byte says
  // 1 or 2 is refused with a Corruption error naming the version.
  Rng rng(17);
  const std::string blob = SerializeDataset(RandomDataset(&rng, 200, 3));
  const std::string frame = compress::CompressFrame(blob);
  ThreadPool pool(4);
  for (char version : {1, 2}) {
    const std::string named = "version " + std::to_string(version);
    std::string old_blob = blob;
    old_blob[4] = version;
    std::string old_frame = frame;
    old_frame[4] = version;
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      auto ds = DeserializeDataset(old_blob, p);
      ASSERT_FALSE(ds.ok()) << named;
      EXPECT_EQ(ds.status().code(), StatusCode::kCorruption);
      EXPECT_NE(ds.status().message().find(named), std::string::npos)
          << ds.status().ToString();
      auto raw = compress::DecompressFrame(old_frame, p);
      ASSERT_FALSE(raw.ok()) << named;
      EXPECT_EQ(raw.status().code(), StatusCode::kCorruption);
      EXPECT_NE(raw.status().message().find(named), std::string::npos)
          << raw.status().ToString();
    }
  }
}

TEST(DjdsV2Test, EmptyDatasetRoundTrips) {
  Dataset empty;
  std::string blob = SerializeDataset(empty);
  auto back = DeserializeDataset(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().NumRows(), 0u);
  EXPECT_EQ(back.value().NumColumns(), 0u);
}

TEST(DjdsV2Test, RejectsTruncation) {
  Rng rng(19);
  Dataset ds = RandomDataset(&rng, 300, 2);
  std::string blob = SerializeDataset(ds, nullptr, 4);
  // Every strict prefix must fail cleanly (never crash or mis-decode).
  for (size_t len : std::vector<size_t>{0, 3, 5, 8, blob.size() / 4,
                                        blob.size() / 2, blob.size() - 1}) {
    auto r = DeserializeDataset(blob.substr(0, len));
    EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(DjdsV2Test, RejectsCorruptShardTableAndPayload) {
  Rng rng(23);
  Dataset ds = RandomDataset(&rng, 300, 2);
  std::string blob = SerializeDataset(ds, nullptr, 4);
  // Flip one byte at a time across header, shard table, and payloads: the
  // result must either fail or decode to the original fingerprint (a flip
  // in serialization slack could be benign, but silent wrong data is not).
  std::string want = Fingerprint(ds);
  for (size_t i = 5; i < blob.size(); i += 7) {
    std::string bad = blob;
    bad[i] = static_cast<char>(bad[i] ^ 0x5A);
    auto r = DeserializeDataset(bad);
    if (r.ok()) {
      EXPECT_EQ(Fingerprint(r.value()), want) << "flip at " << i;
    }
  }
}

TEST(DjdsV2Test, RejectsOverflowingVarintLengths) {
  // Header claiming a gigantic column-name length must fail without
  // allocating (the old `*pos + len` check could wrap past the size).
  std::string blob("DJDS", 4);
  blob.push_back(3);             // v3
  blob.push_back(1);             // num_rows = 1
  blob.push_back(1);             // num_cols = 1
  for (int i = 0; i < 9; ++i) blob.push_back('\xFF');
  blob.push_back(1);             // 10-byte varint ~ 2^63
  EXPECT_FALSE(DeserializeDataset(blob).ok());
}

// ---------------------------------------------------------- JSONL plane --

std::string MakeJsonl(Rng* rng, size_t rows) {
  Dataset ds = RandomDataset(rng, rows, 3);
  return ToJsonl(ds);
}

TEST(ParallelJsonlTest, ParallelParseMatchesSerial) {
  Rng rng(29);
  // Large enough to clear the parallel threshold (64 KiB).
  std::string content = MakeJsonl(&rng, 4000);
  ASSERT_GT(content.size(), 1u << 16);
  ThreadPool pool(4);
  auto serial = ParseJsonl(content);
  auto parallel = ParseJsonl(content, &pool);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(Fingerprint(parallel.value()), Fingerprint(serial.value()));
  EXPECT_EQ(parallel.value().ColumnNames(), serial.value().ColumnNames());
  // Determinism end-to-end: re-serializing the parallel parse reproduces
  // the input bytes exactly.
  EXPECT_EQ(ToJsonl(parallel.value(), &pool), content);
}

TEST(ParallelJsonlTest, ParallelToJsonlIsByteIdentical) {
  Rng rng(31);
  Dataset ds = RandomDataset(&rng, 3000, 3);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  std::string serial = ToJsonl(ds);
  EXPECT_EQ(ToJsonl(ds, &pool2), serial);
  EXPECT_EQ(ToJsonl(ds, &pool8), serial);
}

TEST(ParallelJsonlTest, ErrorLineNumbersMatchSerial) {
  Rng rng(37);
  std::string content = MakeJsonl(&rng, 4000);
  // Break a line deep in the buffer so several chunks precede it.
  size_t line_start = 0;
  size_t lineno = 0;
  size_t target_line = 3456;
  for (size_t i = 0; i < content.size() && lineno + 1 < target_line; ++i) {
    if (content[i] == '\n') {
      ++lineno;
      line_start = i + 1;
    }
  }
  content[line_start] = '[';  // no longer an object
  ThreadPool pool(4);
  auto serial = ParseJsonl(content);
  auto parallel = ParseJsonl(content, &pool);
  ASSERT_FALSE(serial.ok());
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.status().message(), serial.status().message());
  EXPECT_NE(serial.status().message().find(std::to_string(target_line)),
            std::string::npos)
      << serial.status().message();
}

TEST(ParallelJsonlTest, WhitespaceOnlyLinesAndMissingTrailingNewline) {
  std::string content = "{\"a\": 1}\n\n   \n{\"a\": 2}";
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    auto r = ParseJsonl(content, p);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().NumRows(), 2u);
  }
}

// ------------------------------------------------------------ djlz v3 ----

TEST(DjlzBlockParallelTest, MultiBlockFrameRoundTrips) {
  Rng rng(41);
  // ~3.5 MiB => 4 blocks at 1 MiB each.
  std::string input;
  input.reserve(3'500'000);
  while (input.size() < 3'500'000) {
    input += "block parallel frame content ";
    input.push_back(static_cast<char>(rng.NextBelow(256)));
  }
  ThreadPool pool(4);
  std::string serial_frame = compress::CompressFrame(input);
  std::string parallel_frame = compress::CompressFrame(input, &pool);
  EXPECT_EQ(parallel_frame, serial_frame);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    auto out = compress::DecompressFrame(serial_frame, p);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out.value(), input);
  }
}

TEST(DjlzBlockParallelTest, DetectsCorruptionInAnyBlock) {
  std::string input(3 * (1u << 20) + 100, 'q');
  std::string frame = compress::CompressFrame(input);
  // One flip per region: header, block table, first/middle/last payload.
  for (size_t i : std::vector<size_t>{5, 25, 80, frame.size() / 2,
                                      frame.size() - 2}) {
    std::string bad = frame;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    auto r = compress::DecompressFrame(bad);
    if (r.ok()) {
      EXPECT_EQ(r.value(), input) << "flip at " << i;
    }
  }
  // Payload flips specifically must be caught by the per-block checksums;
  // the compress.frame.corrupt fail point injects exactly that flip.
  probe::Scoped faults(probe::Faults(), "compress.frame.corrupt=always");
  ASSERT_TRUE(faults.status().ok());
  EXPECT_FALSE(compress::DecompressFrame(frame).ok());
}

TEST(DjlzBlockParallelTest, RejectsFrameWithBogusBlockCount) {
  std::string frame("DJLZ", 4);
  frame.push_back(3);  // version 3
  auto put_u64 = [&frame](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      frame.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  put_u64(100);                    // raw_size
  put_u64(0xFFFFFFFFFFFFFFFFull);  // absurd num_blocks
  EXPECT_FALSE(compress::DecompressFrame(frame).ok());
}

// ------------------------------------------------------ fault injection --

// Corruption scenarios driven by the DJ_FAULT fail points instead of
// hand-rolled byte surgery: a torn shard tail on write, a flipped byte on
// read, and hard I/O errors.

std::string FaultTempFile(const std::string& name) {
  return ::testing::TempDir() + "/dj_io_fault_" + name;
}

TEST(FaultInjectionTest, TornShardTailWriteIsDetectedOnRead) {
  Rng rng(47);
  Dataset ds = RandomDataset(&rng, 400, 3);
  std::string path = FaultTempFile("torn.djds");
  {
    // io.write.short truncates to 2/3 and still reports success — exactly
    // how a torn write looks to the writer. Only the read path can catch it.
    probe::Scoped faults(probe::Faults(), "io.write.short=always");
    ASSERT_TRUE(faults.status().ok());
    ASSERT_TRUE(WriteFile(path, SerializeDataset(ds, nullptr, 4)).ok());
  }
  auto torn = ReadFile(path);
  ASSERT_TRUE(torn.ok());
  EXPECT_FALSE(DeserializeDataset(torn.value()).ok())
      << "torn shard tail decoded successfully";
}

TEST(FaultInjectionTest, FlippedByteOnReadIsDetected) {
  Rng rng(53);
  Dataset ds = RandomDataset(&rng, 400, 3);
  std::string path = FaultTempFile("flipped.djds");
  ASSERT_TRUE(WriteFile(path, SerializeDataset(ds, nullptr, 4)).ok());
  probe::Scoped faults(probe::Faults(), "io.read.corrupt=always");
  ASSERT_TRUE(faults.status().ok());
  // The point flips a mid-file byte — shard payload territory, which the
  // per-shard checksums must catch.
  auto corrupted = ReadFile(path);
  ASSERT_TRUE(corrupted.ok());
  EXPECT_FALSE(DeserializeDataset(corrupted.value()).ok())
      << "flipped byte decoded successfully";
}

TEST(FaultInjectionTest, HardIoErrorsSurfaceAsStatus) {
  std::string path = FaultTempFile("hard.bin");
  {
    probe::Scoped faults(probe::Faults(), "io.write.fail=always");
    ASSERT_TRUE(faults.status().ok());
    Status s = WriteFile(path, "payload");
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kIoError);
  }
  ASSERT_TRUE(WriteFile(path, "payload").ok());
  {
    probe::Scoped faults(probe::Faults(), "io.read.fail=always");
    ASSERT_TRUE(faults.status().ok());
    ASSERT_FALSE(ReadFile(path).ok());
  }
  // With the registry reset, the same file reads back fine.
  auto back = ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), "payload");
}

TEST(FaultInjectionTest, ProbabilisticTornWritesAreSeedDeterministic) {
  Rng rng(59);
  Dataset ds = RandomDataset(&rng, 50, 2);
  std::string blob = SerializeDataset(ds);
  auto torn_mask = [&](uint64_t seed) {
    probe::Scoped faults(probe::Faults(), "seed=" + std::to_string(seed) +
                                              ";io.write.short=p0.5");
    EXPECT_TRUE(faults.status().ok());
    std::vector<bool> out;
    for (int i = 0; i < 32; ++i) {
      std::string path = FaultTempFile("p" + std::to_string(i));
      EXPECT_TRUE(WriteFile(path, blob).ok());
      auto back = ReadFile(path);
      EXPECT_TRUE(back.ok());
      out.push_back(back.value().size() != blob.size());
    }
    return out;
  };
  std::vector<bool> run1 = torn_mask(77);
  EXPECT_EQ(run1, torn_mask(77));
  EXPECT_NE(std::count(run1.begin(), run1.end(), true), 0);
}

// --------------------------------------------------- container pipeline --

TEST(ContainerPipelineTest, CompressedContainerRoundTripsThroughPool) {
  Rng rng(43);
  Dataset ds = RandomDataset(&rng, 2500, 3);
  ThreadPool pool(4);
  std::string packed =
      compress::CompressFrame(SerializeDataset(ds, &pool), &pool);
  auto blob = compress::DecompressFrame(packed, &pool);
  ASSERT_TRUE(blob.ok());
  auto back = DeserializeDataset(blob.value(), &pool);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(Fingerprint(back.value()), Fingerprint(ds));
}

}  // namespace
}  // namespace dj::data
