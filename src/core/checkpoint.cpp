#include "core/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <unordered_set>

#include "util/errors.hpp"
#include "util/failpoint.hpp"
#include "util/fnv.hpp"
#include "util/wire.hpp"

namespace rid::core {

namespace {

namespace fs = std::filesystem;

// Little-endian (de)serialization lives in util/wire.hpp, shared with the
// socket shard protocol and the serve job journal — one implementation
// keeps all three formats byte-compatible. The "checkpoint record" context
// preserves the historical error wording.
using util::wire::put_f64;
using util::wire::put_u32;
using util::wire::put_u64;

util::wire::Reader record_reader(std::string_view data) {
  return util::wire::Reader(data, "checkpoint record");
}

using util::fnv1a64_step;

constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8;

std::string encode_header(std::uint64_t fingerprint) {
  std::string out(kCheckpointMagic, sizeof(kCheckpointMagic));
  put_u32(out, kCheckpointFormatVersion);
  put_u32(out, 0);  // reserved
  put_u64(out, fingerprint);
  return out;
}

TreeStatus status_from_byte(std::uint8_t byte) {
  switch (byte) {
    case static_cast<std::uint8_t>(TreeStatus::kOk):
      return TreeStatus::kOk;
    case static_cast<std::uint8_t>(TreeStatus::kDegraded):
      return TreeStatus::kDegraded;
    case static_cast<std::uint8_t>(TreeStatus::kFailed):
      return TreeStatus::kFailed;
  }
  throw util::InputError("checkpoint record: invalid tree status byte " +
                         std::to_string(byte));
}

/// Parses the stream after the header. In tolerant mode, stops at the first
/// damaged record, stores its description in *error, and returns the valid
/// prefix; in strict mode (error == nullptr) the description is thrown.
std::vector<TreeCheckpointRecord> parse_records(std::string_view stream,
                                                const std::string& path,
                                                std::string* error) {
  std::vector<TreeCheckpointRecord> records;
  const auto fail = [&](const std::string& what)
      -> std::vector<TreeCheckpointRecord> {
    const std::string message =
        path + ": after " + std::to_string(records.size()) +
        " valid records: " + what;
    if (error == nullptr) throw util::InputError(message);
    *error = message;
    return records;
  };

  util::wire::FrameScanner scanner(stream);
  while (true) {
    if (scanner.remaining() > 0) RID_FAILPOINT("checkpoint.read");
    std::string_view payload;
    switch (scanner.next(&payload)) {
      case util::wire::FrameScanner::Status::kRecord:
        break;
      case util::wire::FrameScanner::Status::kEnd:
        return records;
      case util::wire::FrameScanner::Status::kTornHeader:
        return fail("truncated record frame (" +
                    std::to_string(scanner.remaining()) + " trailing bytes)");
      case util::wire::FrameScanner::Status::kTornPayload:
        return fail("truncated record payload (want " +
                    std::to_string(scanner.declared_length()) +
                    " bytes, have " +
                    std::to_string(scanner.remaining() -
                                   util::wire::kFrameHeaderSize) +
                    ")");
      case util::wire::FrameScanner::Status::kBadChecksum:
        return fail("record checksum mismatch (corrupt payload)");
    }
    try {
      records.push_back(decode_record(payload));
    } catch (const util::InputError& e) {
      return fail(e.what());
    }
  }
}

/// Reads the whole file and validates the header. Header problems are
/// always fatal for the file (there is no valid prefix to keep). When
/// `header_out` is non-null it receives the parsed version/fingerprint as
/// soon as the magic checks out (before version/fingerprint validation), so
/// inspection tools can report what a rejected file claims to be.
std::string read_stream(const std::string& path,
                        std::uint64_t expected_fingerprint,
                        CheckpointFileInfo* header_out = nullptr) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr)
    throw util::InputError("checkpoint file " + path + ": cannot open");
  std::string data;
  char buffer[1 << 16];
  std::size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0)
    data.append(buffer, got);
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error)
    throw util::InputError("checkpoint file " + path + ": read error");

  if (data.size() < kHeaderSize)
    throw util::InputError("checkpoint file " + path +
                           ": truncated header (" +
                           std::to_string(data.size()) + " bytes)");
  if (std::memcmp(data.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
      0)
    throw util::InputError("checkpoint file " + path +
                           ": bad magic (not a RID checkpoint)");
  util::wire::Reader header =
      record_reader(std::string_view(data).substr(8, kHeaderSize - 8));
  const std::uint32_t version = header.u32();
  header.u32();  // reserved
  const std::uint64_t fingerprint = header.u64();
  if (header_out != nullptr) {
    header_out->version = version;
    header_out->fingerprint = fingerprint;
  }
  if (version != kCheckpointFormatVersion)
    throw util::InputError(
        "checkpoint file " + path + ": format version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(kCheckpointFormatVersion) + ")");
  if (expected_fingerprint != 0 && fingerprint != expected_fingerprint)
    throw util::InputError("checkpoint file " + path +
                           ": forest fingerprint mismatch (written for a "
                           "different snapshot/forest)");
  return data.substr(kHeaderSize);
}

/// Tolerant single-file read: the file's valid record prefix, with the
/// damage (header or stream) described in *error. `header_out` as for
/// read_stream.
std::vector<TreeCheckpointRecord> read_valid_prefix(
    const std::string& path, std::uint64_t expected_fingerprint,
    std::string* error, CheckpointFileInfo* header_out = nullptr) {
  try {
    return parse_records(read_stream(path, expected_fingerprint, header_out),
                         path, error);
  } catch (const util::InputError& e) {
    *error = e.what();  // header-level damage: nothing salvageable
    return {};
  }
}

/// Every "*.ckpt" file in run_dir, sorted by name (the merge order); empty
/// when run_dir is missing.
std::vector<std::string> checkpoint_files(const std::string& run_dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  if (!fs::is_directory(run_dir, ec)) return paths;
  for (const auto& entry : fs::directory_iterator(run_dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().extension() == kCheckpointExtension)
      paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace

std::uint64_t forest_fingerprint(const CascadeForest& forest) {
  std::uint64_t hash = util::kFnv64Basis;
  hash = fnv1a64_step(hash, forest.trees.size());
  hash = fnv1a64_step(hash, forest.num_components);
  for (const CascadeTree& tree : forest.trees) {
    hash = fnv1a64_step(hash, tree.size());
    hash = fnv1a64_step(hash, tree.root);
    for (const graph::NodeId v : tree.global) hash = fnv1a64_step(hash, v);
    for (const graph::NodeState s : tree.state)
      hash = fnv1a64_step(hash,
                          static_cast<std::uint64_t>(static_cast<int>(s) + 8));
  }
  // 0 is the "skip the check" sentinel; remap the (astronomically unlikely)
  // genuine 0 so stored fingerprints are always verified.
  return hash == 0 ? 1 : hash;
}

std::string encode_record(const TreeCheckpointRecord& record) {
  std::string out;
  put_u64(out, record.tree_index);
  out.push_back(static_cast<char>(record.status));
  out.push_back(static_cast<char>(record.budget_hit ? 1 : 0));
  out.push_back(static_cast<char>(record.fallback_root_only ? 1 : 0));
  out.push_back(0);  // reserved
  put_u32(out, record.solution.k);
  put_f64(out, record.solution.opt);
  put_f64(out, record.solution.objective);
  put_f64(out, record.seconds);
  put_u32(out, static_cast<std::uint32_t>(record.solution.initiators.size()));
  for (std::size_t i = 0; i < record.solution.initiators.size(); ++i) {
    put_u32(out, record.solution.initiators[i]);
    out.push_back(static_cast<char>(record.solution.states[i]));
  }
  put_u32(out, static_cast<std::uint32_t>(record.solution.entry_k.size()));
  for (const std::uint32_t k : record.solution.entry_k) put_u32(out, k);
  put_u32(out, static_cast<std::uint32_t>(record.error.size()));
  out.append(record.error);
  return out;
}

TreeCheckpointRecord decode_record(std::string_view payload) {
  util::wire::Reader in = record_reader(payload);
  TreeCheckpointRecord record;
  record.tree_index = in.u64();
  record.status = status_from_byte(in.u8());
  record.budget_hit = in.u8() != 0;
  record.fallback_root_only = in.u8() != 0;
  in.u8();  // reserved
  record.solution.k = in.u32();
  record.solution.opt = in.f64();
  record.solution.objective = in.f64();
  record.seconds = in.f64();
  const std::size_t num_initiators = in.count(in.u32(), 4 + 1);
  record.solution.initiators.reserve(num_initiators);
  record.solution.states.reserve(num_initiators);
  for (std::size_t i = 0; i < num_initiators; ++i) {
    record.solution.initiators.push_back(in.u32());
    record.solution.states.push_back(
        static_cast<graph::NodeState>(static_cast<std::int8_t>(in.u8())));
  }
  const std::size_t num_entry = in.count(in.u32(), 4);
  record.solution.entry_k.reserve(num_entry);
  for (std::size_t i = 0; i < num_entry; ++i)
    record.solution.entry_k.push_back(in.u32());
  record.error = in.bytes(in.u32());
  in.expect_done();
  return record;
}

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   std::uint64_t fingerprint)
    : path_(path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr)
    throw std::runtime_error("checkpoint writer: cannot create " + path);
  const std::string header = encode_header(fingerprint);
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
      std::fflush(file_) != 0) {
    std::fclose(file_);
    file_ = nullptr;
    throw std::runtime_error("checkpoint writer: cannot write header to " +
                             path);
  }
}

CheckpointWriter::~CheckpointWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void CheckpointWriter::append(const TreeCheckpointRecord& record) {
  RID_FAILPOINT("checkpoint.append");
  std::string frame;
  util::wire::put_frame(frame, encode_record(record));
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size() ||
      std::fflush(file_) != 0)
    throw std::runtime_error("checkpoint writer: write failed for " + path_);
  ++records_written_;
}

std::vector<TreeCheckpointRecord> read_checkpoint_file(
    const std::string& path, std::uint64_t expected_fingerprint) {
  const std::string stream = read_stream(path, expected_fingerprint);
  return parse_records(stream, path, nullptr);
}

CheckpointLoad load_checkpoint_dir(const std::string& run_dir,
                                   std::uint64_t expected_fingerprint) {
  CheckpointLoad load;
  for (const std::string& path : checkpoint_files(run_dir)) {
    ++load.files_scanned;
    std::string error;
    for (TreeCheckpointRecord& record :
         read_valid_prefix(path, expected_fingerprint, &error))
      load.records.push_back(std::move(record));
    if (!error.empty()) load.errors.push_back(std::move(error));
  }
  return load;
}

CheckpointFileInfo inspect_checkpoint_file(const std::string& path) {
  CheckpointFileInfo info;
  info.path = path;
  // expected_fingerprint 0 = report whatever the header claims.
  info.records = read_valid_prefix(path, 0, &info.error, &info).size();
  info.damaged = !info.error.empty();
  return info;
}

CompactionResult compact_checkpoint_dir(const std::string& run_dir,
                                        std::uint64_t expected_fingerprint) {
  CompactionResult result;
  const std::vector<std::string> paths = checkpoint_files(run_dir);
  result.files_before = paths.size();
  if (paths.empty()) return result;

  std::uint64_t fingerprint = expected_fingerprint;
  if (fingerprint == 0) {
    // Adopt the first readable header as the run's identity; files written
    // for another forest then count as stale.
    for (const std::string& path : paths) {
      const CheckpointFileInfo info = inspect_checkpoint_file(path);
      if (!info.damaged || info.fingerprint != 0) {
        fingerprint = info.fingerprint;
        break;
      }
    }
    if (fingerprint == 0) {
      result.errors.push_back(run_dir +
                              ": no readable checkpoint header; nothing to "
                              "compact");
      return result;
    }
  }

  // Same merge as a resume: sorted file order, first record per tree wins.
  std::vector<TreeCheckpointRecord> kept;
  std::unordered_set<std::uint64_t> seen;
  for (const std::string& path : paths) {
    std::string error;
    for (TreeCheckpointRecord& record :
         read_valid_prefix(path, fingerprint, &error)) {
      if (!seen.insert(record.tree_index).second) {
        ++result.duplicates_dropped;
        continue;
      }
      kept.push_back(std::move(record));
    }
    if (!error.empty()) result.errors.push_back(std::move(error));
  }
  if (kept.empty()) {
    result.errors.push_back(run_dir + ": no salvageable records; files left "
                                      "untouched");
    return result;
  }

  const std::string output = run_dir + "/compact" + kCheckpointExtension;
  const std::string tmp = output + ".tmp";
  try {
    CheckpointWriter writer(tmp, fingerprint);
    for (const TreeCheckpointRecord& record : kept) writer.append(record);
  } catch (const std::exception& e) {
    std::remove(tmp.c_str());
    throw util::InputError(std::string("checkpoint compaction: ") + e.what());
  }
  if (std::rename(tmp.c_str(), output.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw util::InputError("checkpoint compaction: cannot rename " + tmp);
  }
  result.records_kept = kept.size();
  result.output_file = output;

  for (const std::string& path : paths) {
    if (path == output) continue;  // re-compacting an already-compacted dir
    if (std::remove(path.c_str()) == 0) ++result.files_removed;
  }
  return result;
}

}  // namespace rid::core
