// Checkpoint layer (core/checkpoint.hpp): bit-exact round trips, header and
// record validation, and the tolerant directory loader's corruption
// contract — damaged data surfaces as util::InputError (strict) or an error
// note plus the valid prefix (tolerant), never a crash or garbage merge.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/cascade_extraction.hpp"
#include "core/checkpoint.hpp"
#include "graph/signed_graph.hpp"
#include "util/errors.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace rid::core {
namespace {

namespace fs = std::filesystem;
using graph::NodeState;
using graph::Sign;
using graph::SignedGraphBuilder;

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Fresh per-test directory under gtest's temp root.
fs::path test_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("ckpt_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void dump(const fs::path& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

TreeCheckpointRecord sample_record(std::uint64_t tree_index) {
  TreeCheckpointRecord record;
  record.tree_index = tree_index;
  record.status = TreeStatus::kDegraded;
  record.budget_hit = true;
  record.fallback_root_only = true;
  record.seconds = 0.25;
  record.error = "tree " + std::to_string(tree_index) + " failed: \n binary\x01";
  record.solution.k = 2;
  // Awkward doubles on purpose: the round trip must preserve exact bits.
  record.solution.opt = 0.1 + 0.2;
  record.solution.objective = -0.0;
  record.solution.initiators = {3, 7};
  record.solution.states = {NodeState::kNegative, NodeState::kPositive};
  record.solution.entry_k = {1, 2, 2};
  return record;
}

void expect_equal(const TreeCheckpointRecord& a, const TreeCheckpointRecord& b) {
  EXPECT_EQ(a.tree_index, b.tree_index);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.budget_hit, b.budget_hit);
  EXPECT_EQ(a.fallback_root_only, b.fallback_root_only);
  EXPECT_EQ(double_bits(a.seconds), double_bits(b.seconds));
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.solution.k, b.solution.k);
  EXPECT_EQ(double_bits(a.solution.opt), double_bits(b.solution.opt));
  EXPECT_EQ(double_bits(a.solution.objective), double_bits(b.solution.objective));
  EXPECT_EQ(a.solution.initiators, b.solution.initiators);
  EXPECT_EQ(a.solution.states, b.solution.states);
  EXPECT_EQ(a.solution.entry_k, b.solution.entry_k);
}

TEST(Checkpoint, RecordRoundTripPreservesExactBits) {
  const TreeCheckpointRecord record = sample_record(11);
  expect_equal(record, decode_record(encode_record(record)));

  TreeCheckpointRecord subnormal = sample_record(0);
  subnormal.solution.opt = 5e-324;  // smallest positive subnormal
  subnormal.solution.objective = 1.0 / 3.0;
  subnormal.error.clear();
  subnormal.solution.initiators.clear();
  subnormal.solution.states.clear();
  subnormal.solution.entry_k.clear();
  expect_equal(subnormal, decode_record(encode_record(subnormal)));
}

TEST(Checkpoint, DecodeRejectsTruncatedAndTrailingPayloads) {
  const std::string payload = encode_record(sample_record(1));
  EXPECT_THROW(decode_record(payload.substr(0, payload.size() - 1)),
               util::InputError);
  EXPECT_THROW(decode_record(payload.substr(0, 5)), util::InputError);
  EXPECT_THROW(decode_record(payload + "x"), util::InputError);
  EXPECT_THROW(decode_record(""), util::InputError);
}

TEST(Checkpoint, DecodeRejectsCountsBeyondThePayload) {
  // One checksum-valid record whose payload ends at a claimed 0xFFFFFFFF
  // initiators: a 76-byte file. Every reader must call it damage — never
  // size a vector by the claim (std::bad_alloc used to escape here).
  TreeCheckpointRecord record;
  std::string payload = encode_record(record).substr(0, 40);
  payload += std::string(4, '\xff');
  EXPECT_THROW(decode_record(payload), util::InputError);

  const fs::path dir = test_dir("huge_count");
  const fs::path path = dir / "shard-0-a1.ckpt";
  { CheckpointWriter header_only(path.string(), 42); }
  std::string frame;
  util::wire::put_frame(frame, payload);
  dump(path, slurp(path) + frame);
  ASSERT_EQ(fs::file_size(path), 76u);

  const CheckpointFileInfo info = inspect_checkpoint_file(path.string());
  EXPECT_TRUE(info.damaged);
  EXPECT_EQ(info.records, 0u);
  EXPECT_THROW(read_checkpoint_file(path.string(), 42), util::InputError);
  const CheckpointLoad load = load_checkpoint_dir(dir.string(), 42);
  EXPECT_TRUE(load.records.empty());
  EXPECT_EQ(load.errors.size(), 1u);
}

TEST(Checkpoint, DecodeRejectsInvalidStatusByte) {
  std::string payload = encode_record(sample_record(1));
  payload[8] = 7;  // status byte follows the u64 tree index
  EXPECT_THROW(decode_record(payload), util::InputError);
}

TEST(Checkpoint, WriterRoundTripThroughStrictReader) {
  const fs::path dir = test_dir("writer");
  const std::string path = (dir / "a.ckpt").string();
  {
    CheckpointWriter writer(path, 42);
    writer.append(sample_record(0));
    writer.append(sample_record(5));
    writer.append(sample_record(2));
    EXPECT_EQ(writer.records_written(), 3u);
  }
  const auto records = read_checkpoint_file(path, 42);
  ASSERT_EQ(records.size(), 3u);
  expect_equal(records[0], sample_record(0));
  expect_equal(records[1], sample_record(5));
  expect_equal(records[2], sample_record(2));
  // Fingerprint 0 skips the check.
  EXPECT_EQ(read_checkpoint_file(path, 0).size(), 3u);
}

TEST(Checkpoint, FingerprintMismatchIsInputError) {
  const fs::path dir = test_dir("fingerprint");
  const std::string path = (dir / "a.ckpt").string();
  { CheckpointWriter writer(path, 42); }
  EXPECT_THROW(read_checkpoint_file(path, 43), util::InputError);
  // The tolerant loader keeps nothing from the file but records the reason.
  const CheckpointLoad load = load_checkpoint_dir(dir.string(), 43);
  EXPECT_EQ(load.files_scanned, 1u);
  EXPECT_TRUE(load.records.empty());
  ASSERT_EQ(load.errors.size(), 1u);
  EXPECT_NE(load.errors[0].find("fingerprint"), std::string::npos);
}

TEST(Checkpoint, TruncatedRecordKeepsValidPrefix) {
  const fs::path dir = test_dir("truncated");
  const std::string path = (dir / "a.ckpt").string();
  {
    CheckpointWriter writer(path, 7);
    writer.append(sample_record(0));
    writer.append(sample_record(1));
  }
  const std::string full = slurp(path);
  dump(path, full.substr(0, full.size() - 3));  // cut into the last record

  EXPECT_THROW(read_checkpoint_file(path, 7), util::InputError);
  const CheckpointLoad load = load_checkpoint_dir(dir.string(), 7);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].tree_index, 0u);
  ASSERT_EQ(load.errors.size(), 1u);
  EXPECT_NE(load.errors[0].find("truncated"), std::string::npos);
}

TEST(Checkpoint, ChecksumMismatchKeepsValidPrefix) {
  const fs::path dir = test_dir("checksum");
  const std::string path = (dir / "a.ckpt").string();
  {
    CheckpointWriter writer(path, 7);
    writer.append(sample_record(0));
    writer.append(sample_record(1));
  }
  std::string data = slurp(path);
  data[data.size() - 2] ^= 0x40;  // corrupt the last record's payload
  dump(path, data);

  try {
    read_checkpoint_file(path, 7);
    FAIL() << "expected InputError";
  } catch (const util::InputError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
  const CheckpointLoad load = load_checkpoint_dir(dir.string(), 7);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].tree_index, 0u);
  ASSERT_EQ(load.errors.size(), 1u);
  EXPECT_NE(load.errors[0].find("checksum"), std::string::npos);
}

TEST(Checkpoint, VersionAndMagicMismatchesAreRejected) {
  const fs::path dir = test_dir("header");
  const std::string path = (dir / "a.ckpt").string();
  {
    CheckpointWriter writer(path, 7);
    writer.append(sample_record(0));
  }
  const std::string good = slurp(path);

  std::string bad_version = good;
  bad_version[8] = 99;  // version u32 follows the 8-byte magic
  dump(path, bad_version);
  try {
    read_checkpoint_file(path, 7);
    FAIL() << "expected InputError";
  } catch (const util::InputError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  dump(path, bad_magic);
  EXPECT_THROW(read_checkpoint_file(path, 7), util::InputError);

  dump(path, good.substr(0, 5));  // truncated header
  EXPECT_THROW(read_checkpoint_file(path, 7), util::InputError);
  EXPECT_THROW(read_checkpoint_file((dir / "missing.ckpt").string(), 7),
               util::InputError);

  // None of the damaged shapes crash the tolerant loader.
  const CheckpointLoad load = load_checkpoint_dir(dir.string(), 7);
  EXPECT_TRUE(load.records.empty());
  EXPECT_EQ(load.errors.size(), 1u);
}

/// Recomputes every frame's checksum over its (possibly damaged) payload,
/// so bit flips reach decode_record instead of stopping at the checksum.
void restamp_frames(std::string& file) {
  std::size_t off = 24;  // magic, version, reserved, fingerprint
  while (off + util::wire::kFrameHeaderSize <= file.size()) {
    const std::uint32_t length =
        util::wire::decode_frame_header(std::string_view(file).substr(off))
            .first;
    const std::size_t payload = off + util::wire::kFrameHeaderSize;
    if (length > file.size() - payload) break;
    std::string stamp;
    util::wire::put_u32(
        stamp, util::fnv1a32(std::string_view(file).substr(payload, length)));
    file.replace(off + 4, 4, stamp);
    off = payload + length;
  }
}

TEST(Checkpoint, DamagedFilesReadOrThrowInputError) {
  const fs::path dir = test_dir("fuzz");
  const std::string path = (dir / "shard-0-a1.ckpt").string();
  {
    CheckpointWriter writer(path, 42);
    for (std::uint64_t tree = 0; tree < 3; ++tree)
      writer.append(sample_record(tree));
  }
  const std::string file = slurp(path);
  // The strict reader returns records or throws InputError (any other
  // exception fails the test); the tolerant readers never throw.
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  const auto probe = [&](const std::string& bytes) {
    dump(path, bytes);
    try {
      const auto records = read_checkpoint_file(path, 42);
      EXPECT_LE(records.size(), 3u);
      ++accepted;
    } catch (const util::InputError&) {
      ++rejected;
    }
    EXPECT_NO_THROW(load_checkpoint_dir(dir.string(), 42));
    EXPECT_NO_THROW(inspect_checkpoint_file(path));
  };
  for (std::size_t cut = 0; cut < file.size(); ++cut) {
    SCOPED_TRACE(cut);
    probe(file.substr(0, cut));
  }
  util::Rng rng(20261018);
  for (int round = 0; round < 4000; ++round) {
    SCOPED_TRACE(round);
    std::string damaged = file;
    const std::int64_t flips = rng.uniform_int(1, 4);
    for (std::int64_t f = 0; f < flips; ++f) {
      const std::uint64_t bit = rng.next_below(damaged.size() * 8);
      damaged[bit / 8] = static_cast<char>(damaged[bit / 8] ^ (1 << (bit % 8)));
    }
    if (round % 2 == 1) restamp_frames(damaged);
    probe(damaged);
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(Checkpoint, DirectoryLoaderMergesFilesAndIgnoresStrangers) {
  const fs::path dir = test_dir("dir");
  {
    CheckpointWriter a((dir / "b.ckpt").string(), 7);
    a.append(sample_record(4));
  }
  {
    CheckpointWriter b((dir / "a.ckpt").string(), 7);
    b.append(sample_record(2));
    b.append(sample_record(4));  // duplicate across files is legal
  }
  dump(dir / "notes.txt", "not a checkpoint");

  const CheckpointLoad load = load_checkpoint_dir(dir.string(), 7);
  EXPECT_EQ(load.files_scanned, 2u);
  EXPECT_TRUE(load.errors.empty());
  // Name-sorted file order: a.ckpt's records first.
  ASSERT_EQ(load.records.size(), 3u);
  EXPECT_EQ(load.records[0].tree_index, 2u);
  EXPECT_EQ(load.records[1].tree_index, 4u);
  EXPECT_EQ(load.records[2].tree_index, 4u);
}

TEST(Checkpoint, MissingDirectoryIsAFreshRun) {
  const CheckpointLoad load =
      load_checkpoint_dir((fs::path(::testing::TempDir()) / "ckpt_nowhere_x")
                              .string(),
                          7);
  EXPECT_TRUE(load.records.empty());
  EXPECT_TRUE(load.errors.empty());
  EXPECT_EQ(load.files_scanned, 0u);
}

TEST(Checkpoint, ForestFingerprintTracksShapeAndStates) {
  SignedGraphBuilder builder(6);
  builder.add_edge(0, 1, Sign::kPositive, 0.2)
      .add_edge(1, 2, Sign::kPositive, 0.2)
      .add_edge(4, 5, Sign::kNegative, 0.4);
  const graph::SignedGraph g = builder.build();
  std::vector<NodeState> states(6, NodeState::kInactive);
  states[0] = states[1] = states[2] = NodeState::kPositive;
  states[4] = NodeState::kPositive;
  states[5] = NodeState::kNegative;

  const CascadeForest forest = extract_cascade_forest(g, states, {});
  const CascadeForest same = extract_cascade_forest(g, states, {});
  EXPECT_EQ(forest_fingerprint(forest), forest_fingerprint(same));
  EXPECT_NE(forest_fingerprint(forest), 0u);

  states[2] = NodeState::kNegative;  // same nodes, one observed state flips
  const CascadeForest flipped = extract_cascade_forest(g, states, {});
  EXPECT_NE(forest_fingerprint(forest), forest_fingerprint(flipped));

  states[3] = NodeState::kPositive;  // an extra (isolated) infected node
  const CascadeForest bigger = extract_cascade_forest(g, states, {});
  EXPECT_NE(forest_fingerprint(forest), forest_fingerprint(bigger));
}

TEST(CheckpointInspect, ReportsHeaderRecordsAndDamage) {
  const fs::path dir = test_dir("inspect");
  const std::string path = (dir / "a.ckpt").string();
  {
    CheckpointWriter writer(path, 42);
    writer.append(sample_record(0));
    writer.append(sample_record(1));
  }
  CheckpointFileInfo info = inspect_checkpoint_file(path);
  EXPECT_EQ(info.path, path);
  EXPECT_EQ(info.fingerprint, 42u);
  EXPECT_EQ(info.records, 2u);
  EXPECT_FALSE(info.damaged);
  EXPECT_TRUE(info.error.empty());

  // Truncation mid-record: valid prefix counted, damage described, no throw.
  const std::string full = slurp(path);
  dump(path, full.substr(0, full.size() - 3));
  info = inspect_checkpoint_file(path);
  EXPECT_EQ(info.records, 1u);
  EXPECT_TRUE(info.damaged);
  EXPECT_FALSE(info.error.empty());

  // Unreadable header: damaged with zero records, still no throw.
  dump(path, "short");
  info = inspect_checkpoint_file(path);
  EXPECT_EQ(info.records, 0u);
  EXPECT_TRUE(info.damaged);
  info = inspect_checkpoint_file((dir / "missing.ckpt").string());
  EXPECT_TRUE(info.damaged);
}

TEST(CheckpointCompaction, MergesFirstWinsAndPrunes) {
  const fs::path dir = test_dir("compact");
  // Two attempt files with one overlapping tree: resume semantics keep the
  // record from the lexicographically first file.
  {
    CheckpointWriter a((dir / "shard-0-a1.ckpt").string(), 42);
    a.append(sample_record(0));
    TreeCheckpointRecord dup = sample_record(2);
    dup.seconds = 1.0;  // distinguishable from the attempt-2 duplicate
    a.append(dup);
  }
  {
    CheckpointWriter b((dir / "shard-0-a2.ckpt").string(), 42);
    b.append(sample_record(2));
    b.append(sample_record(5));
  }
  // A damaged file whose valid prefix must still be salvaged.
  {
    CheckpointWriter c((dir / "shard-1-a1.ckpt").string(), 42);
    c.append(sample_record(7));
    c.append(sample_record(8));
  }
  const std::string damaged_path = (dir / "shard-1-a1.ckpt").string();
  const std::string full = slurp(damaged_path);
  dump(damaged_path, full.substr(0, full.size() - 2));

  const CompactionResult result = compact_checkpoint_dir(dir.string(), 42);
  EXPECT_EQ(result.files_before, 3u);
  EXPECT_EQ(result.records_kept, 4u);  // trees 0, 2, 5, 7
  EXPECT_EQ(result.duplicates_dropped, 1u);
  EXPECT_FALSE(result.errors.empty());
  EXPECT_FALSE(result.output_file.empty());

  // Only the compacted file remains, and resuming from it merges exactly
  // what resuming from the original directory would have.
  std::size_t ckpt_files = 0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".ckpt") ++ckpt_files;
  EXPECT_EQ(ckpt_files, 1u);
  const CheckpointLoad load = load_checkpoint_dir(dir.string(), 42);
  ASSERT_EQ(load.records.size(), 4u);
  EXPECT_TRUE(load.errors.empty());
  bool saw_dup = false;
  for (const auto& record : load.records) {
    if (record.tree_index == 2) {
      saw_dup = true;
      EXPECT_EQ(double_bits(record.seconds), double_bits(1.0));  // first wins
    }
  }
  EXPECT_TRUE(saw_dup);

  // Wrong-forest files are stale: nothing merged from them, and they are
  // pruned alongside the files the compact output supersedes.
  const fs::path dir2 = test_dir("compact_stale");
  {
    CheckpointWriter stale((dir2 / "shard-0-a1.ckpt").string(), 41);
    stale.append(sample_record(3));
  }
  {
    CheckpointWriter good((dir2 / "shard-1-a1.ckpt").string(), 42);
    good.append(sample_record(4));
  }
  const CompactionResult pruned = compact_checkpoint_dir(dir2.string(), 42);
  EXPECT_EQ(pruned.records_kept, 1u);
  EXPECT_EQ(pruned.files_removed, 2u);
  const CheckpointLoad merged = load_checkpoint_dir(dir2.string(), 42);
  ASSERT_EQ(merged.records.size(), 1u);
  EXPECT_EQ(merged.records[0].tree_index, 4u);

  // When *nothing* is salvageable the directory is left untouched — a
  // mistaken --gc against the wrong forest must not destroy data.
  const fs::path dir3 = test_dir("compact_all_stale");
  {
    CheckpointWriter stale((dir3 / "shard-0-a1.ckpt").string(), 41);
    stale.append(sample_record(3));
  }
  const CompactionResult untouched = compact_checkpoint_dir(dir3.string(), 42);
  EXPECT_EQ(untouched.records_kept, 0u);
  EXPECT_TRUE(untouched.output_file.empty());
  EXPECT_EQ(untouched.files_removed, 0u);
  EXPECT_TRUE(fs::exists(dir3 / "shard-0-a1.ckpt"));
}

TEST(CheckpointCompaction, EmptyAndIdempotent) {
  const fs::path dir = test_dir("compact_empty");
  const CompactionResult empty = compact_checkpoint_dir(dir.string(), 0);
  EXPECT_EQ(empty.files_before, 0u);
  EXPECT_TRUE(empty.output_file.empty());

  {
    CheckpointWriter a((dir / "a.ckpt").string(), 9);
    a.append(sample_record(1));
  }
  // Fingerprint 0 adopts the first readable header.
  const CompactionResult first = compact_checkpoint_dir(dir.string(), 0);
  EXPECT_EQ(first.records_kept, 1u);
  const CompactionResult again = compact_checkpoint_dir(dir.string(), 9);
  EXPECT_EQ(again.records_kept, 1u);
  EXPECT_EQ(again.duplicates_dropped, 0u);
  const CheckpointLoad load = load_checkpoint_dir(dir.string(), 9);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].tree_index, 1u);
}

}  // namespace
}  // namespace rid::core
