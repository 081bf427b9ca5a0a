#include "depmatch/graph/graph_io.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "depmatch/common/rng.h"
#include "depmatch/graph/dependency_graph.h"

namespace depmatch {
namespace {

DependencyGraph RandomGraph(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  std::vector<std::vector<double>> m(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    names.push_back("col_" + std::to_string(seed) + "_" + std::to_string(i));
    m[i][i] = rng.NextDouble() * 8.0;
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double v = rng.NextDouble() * std::min(m[i][i], m[j][j]);
      m[i][j] = v;
      m[j][i] = v;
    }
  }
  auto g = DependencyGraph::Create(std::move(names), std::move(m));
  EXPECT_TRUE(g.ok());
  return g.value();
}

// Bitwise equality: the round trip must preserve the exact IEEE-754
// payload of every cell, not merely be approximately equal.
void ExpectBitIdentical(const DependencyGraph& a, const DependencyGraph& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.name(i), b.name(i));
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(std::bit_cast<uint64_t>(a.mi(i, j)),
                std::bit_cast<uint64_t>(b.mi(i, j)))
          << "cell " << i << "," << j;
    }
  }
}

TEST(GraphIoTest, RoundTripIsBitIdentical) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    DependencyGraph graph = RandomGraph(7, seed);
    std::string blob = SerializeGraphBinary(graph);
    auto loaded = DeserializeGraphBinary(blob);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ExpectBitIdentical(graph, loaded.value());
  }
}

TEST(GraphIoTest, RoundTripEmptyAndSingleNode) {
  auto empty = DependencyGraph::Create({}, {});
  ASSERT_TRUE(empty.ok());
  auto empty_loaded = DeserializeGraphBinary(SerializeGraphBinary(*empty));
  ASSERT_TRUE(empty_loaded.ok()) << empty_loaded.status();
  EXPECT_EQ(empty_loaded->size(), 0u);

  auto single = DependencyGraph::Create({"only"}, {{2.5}});
  ASSERT_TRUE(single.ok());
  auto single_loaded = DeserializeGraphBinary(SerializeGraphBinary(*single));
  ASSERT_TRUE(single_loaded.ok()) << single_loaded.status();
  ExpectBitIdentical(*single, *single_loaded);
}

TEST(GraphIoTest, SerializationIsDeterministic) {
  DependencyGraph graph = RandomGraph(5, 21);
  EXPECT_EQ(SerializeGraphBinary(graph), SerializeGraphBinary(graph));
}

TEST(GraphIoTest, EverySingleByteCorruptionIsDetected) {
  DependencyGraph graph = RandomGraph(4, 31);
  std::string blob = SerializeGraphBinary(graph);
  for (size_t i = 0; i < blob.size(); ++i) {
    std::string corrupted = blob;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x5A);
    auto result = DeserializeGraphBinary(corrupted);
    EXPECT_FALSE(result.ok()) << "flip at byte " << i << " went undetected";
  }
}

TEST(GraphIoTest, EveryTruncationIsDetected) {
  DependencyGraph graph = RandomGraph(4, 41);
  std::string blob = SerializeGraphBinary(graph);
  for (size_t keep = 0; keep < blob.size(); ++keep) {
    auto result = DeserializeGraphBinary(blob.substr(0, keep));
    EXPECT_FALSE(result.ok()) << "truncation to " << keep << " bytes accepted";
  }
}

TEST(GraphIoTest, RejectsBadMagicAndVersion) {
  DependencyGraph graph = RandomGraph(3, 51);
  std::string blob = SerializeGraphBinary(graph);

  // Wrong magic with a recomputed (valid) checksum.
  std::string bad_magic = blob;
  bad_magic[0] = 'X';
  bad_magic.resize(bad_magic.size() - 4);
  graphio::AppendU32(&bad_magic, graphio::Crc32(bad_magic));
  EXPECT_FALSE(DeserializeGraphBinary(bad_magic).ok());

  // Future version with a recomputed checksum.
  std::string bad_version = blob;
  bad_version[4] = 9;
  bad_version.resize(bad_version.size() - 4);
  graphio::AppendU32(&bad_version, graphio::Crc32(bad_version));
  auto result = DeserializeGraphBinary(bad_version);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("version"), std::string::npos);
}

TEST(GraphIoTest, FileRoundTripAndMissingFile) {
  DependencyGraph graph = RandomGraph(6, 61);
  std::string path = testing::TempDir() + "/graph_io_test.dmg";
  ASSERT_TRUE(WriteGraphFile(path, graph).ok());
  auto loaded = ReadGraphFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectBitIdentical(graph, loaded.value());

  auto missing = ReadGraphFile(testing::TempDir() + "/does_not_exist.dmg");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(GraphIoTest, WriteLeavesNoTempFileBehind) {
  // The bare name has no slash, so the directory synced after the
  // rename is the working directory.
  for (const std::string& path :
       {testing::TempDir() + "/graph_io_atomic_ok.bin",
        std::string("graph_io_atomic_bare.bin")}) {
    ASSERT_TRUE(graphio::WriteStringToFile(path, "first").ok());
    ASSERT_TRUE(graphio::WriteStringToFile(path, "second").ok());
    std::string bytes;
    ASSERT_TRUE(graphio::ReadFileToString(path, &bytes).ok());
    EXPECT_EQ(bytes, "second");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    std::filesystem::remove(path);
  }
}

TEST(GraphIoTest, FailedWriteKeepsPreviousFile) {
  // A directory squatting on the temp path makes the write fail even
  // for root; the previous file must survive byte for byte.
  std::string path = testing::TempDir() + "/graph_io_atomic_fail.bin";
  const std::string previous("previous\0contents", 17);
  ASSERT_TRUE(graphio::WriteStringToFile(path, previous).ok());
  std::filesystem::create_directory(path + ".tmp");

  Status status = graphio::WriteStringToFile(path, "replacement");
  EXPECT_FALSE(status.ok());
  std::string bytes;
  ASSERT_TRUE(graphio::ReadFileToString(path, &bytes).ok());
  EXPECT_EQ(bytes, previous);

  std::filesystem::remove(path + ".tmp");
  std::filesystem::remove(path);
}

TEST(GraphIoTest, EndianPrimitivesRoundTrip) {
  std::string buffer;
  graphio::AppendU32(&buffer, 0xDEADBEEFu);
  graphio::AppendU64(&buffer, 0x0123456789ABCDEFull);
  graphio::AppendF64(&buffer, -0.0);
  size_t cursor = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f64 = 1.0;
  ASSERT_TRUE(graphio::ReadU32(buffer, &cursor, &u32));
  ASSERT_TRUE(graphio::ReadU64(buffer, &cursor, &u64));
  ASSERT_TRUE(graphio::ReadF64(buffer, &cursor, &f64));
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(std::bit_cast<uint64_t>(f64), std::bit_cast<uint64_t>(-0.0));
  EXPECT_EQ(cursor, buffer.size());
  // Exhausted buffer: reads fail and leave the cursor in place.
  EXPECT_FALSE(graphio::ReadU32(buffer, &cursor, &u32));
  EXPECT_EQ(cursor, buffer.size());
}

TEST(GraphIoTest, Crc32MatchesKnownVector) {
  // The standard zlib/PNG CRC-32 check value.
  EXPECT_EQ(graphio::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(graphio::Crc32(""), 0x00000000u);
}

// Bit-at-a-time reference CRC-32 (same reflected polynomial), so the
// sliced implementation is checked against the definition, not itself.
uint32_t ReferenceCrc32(std::string_view bytes) {
  uint32_t crc = 0xFFFFFFFFu;
  for (char c : bytes) {
    crc ^= static_cast<unsigned char>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string SeededBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::string bytes(size, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.Next() & 0xFFu);
  return bytes;
}

TEST(GraphIoTest, Crc32MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..257 cover the empty input, every tail length after the
  // 8-byte blocks and several whole blocks; offsets 0..7 cover every
  // alignment of the block loads.
  std::string buffer = SeededBytes(257 + 8, 17);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 257; ++length) {
      std::string_view slice(buffer.data() + offset, length);
      ASSERT_EQ(graphio::Crc32(slice), ReferenceCrc32(slice))
          << "offset " << offset << " length " << length;
    }
  }
  std::string mib = SeededBytes(1 << 20, 23);
  EXPECT_EQ(graphio::Crc32(mib), ReferenceCrc32(mib));
}

}  // namespace
}  // namespace depmatch
