#include "persist/snapshot.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "index/postings_codec.h"
#include "util/fault.h"
#include "util/fingerprint.h"
#include "util/strings.h"

namespace rwdom {
namespace {

constexpr char kMagic[4] = {'R', 'W', 'D', 'X'};
constexpr uint32_t kVersion = 3;
// Header bytes [16, 48): the span the header checksum covers.
constexpr size_t kHeaderBodyBytes = 32;
// v3 posting streams are checksummed in independent blocks of this size.
constexpr uint64_t kDataBlockBytes = 64 * 1024;
// LEB128 never exceeds 10 bytes, so data_bytes beyond entry_count * 10 is
// corruption — caught before the allocation it would size.
constexpr uint64_t kMaxVarintBytes = 10;

template <typename T>
void WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return in.good();
}

struct Header {
  ArtifactKey key;
  NodeId num_nodes = 0;
  int32_t num_replicates = 0;
};

/// Reads the magic and version, then checksums and parses the header
/// body. Shared by Load and Inspect.
Result<Header> ReadHeader(std::ifstream& in, const std::string& path) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in.good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad magic: " + path);
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version)) {
    return Status::Corruption("truncated header: " + path);
  }
  if (version != kVersion) {
    return Status::Corruption(
        StrFormat("unsupported snapshot version %u: %s", version,
                  path.c_str()));
  }
  uint64_t header_checksum = 0;
  if (!ReadPod(in, &header_checksum)) {
    return Status::Corruption("truncated header: " + path);
  }
  char body[kHeaderBodyBytes];
  in.read(body, sizeof(body));
  if (!in.good()) return Status::Corruption("truncated header: " + path);
  if (FingerprintBytes(body, sizeof(body)) != header_checksum) {
    return Status::Corruption("header checksum mismatch: " + path);
  }
  Header header;
  size_t at = 0;
  auto take = [&](void* out, size_t size) {
    std::memcpy(out, body + at, size);
    at += size;
  };
  take(&header.key.length, sizeof(int32_t));
  take(&header.key.num_samples, sizeof(int32_t));
  take(&header.key.seed, sizeof(uint64_t));
  take(&header.key.substrate_fingerprint, sizeof(uint64_t));
  take(&header.num_nodes, sizeof(int32_t));
  take(&header.num_replicates, sizeof(int32_t));
  if (header.num_nodes < 0 || header.key.length < 0 ||
      header.key.num_samples < 0 || header.num_replicates < 1) {
    return Status::Corruption("implausible header fields: " + path);
  }
  return header;
}

/// Per-replicate v3 section preamble.
struct SectionV3 {
  uint64_t entry_count = 0;
  uint64_t data_bytes = 0;
  uint64_t offsets_checksum = 0;
};

Result<SectionV3> ReadSectionV3(std::ifstream& in, const Header& header,
                                const std::string& path) {
  SectionV3 section;
  if (!ReadPod(in, &section.entry_count) ||
      !ReadPod(in, &section.data_bytes) ||
      !ReadPod(in, &section.offsets_checksum)) {
    return Status::Corruption("truncated replicate: " + path);
  }
  // Per replicate, every one of n walks indexes at most L nodes — any
  // larger count is corruption, caught before the allocation it sizes.
  const uint64_t max_entries = static_cast<uint64_t>(header.num_nodes) *
                               static_cast<uint64_t>(header.key.length);
  if (section.entry_count > max_entries) {
    return Status::Corruption("implausible entry count: " + path);
  }
  if (section.data_bytes > section.entry_count * kMaxVarintBytes) {
    return Status::Corruption("implausible data size: " + path);
  }
  return section;
}

uint64_t NumDataBlocks(uint64_t data_bytes) {
  return (data_bytes + kDataBlockBytes - 1) / kDataBlockBytes;
}

}  // namespace

Result<LoadedSnapshot> WalkIndexSerializer::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open: " + path);
  RWDOM_ASSIGN_OR_RETURN(Header header, ReadHeader(in, path));
  const NodeId num_nodes = header.num_nodes;
  const int32_t weight_bits = PostingWeightBits(header.key.length);

  std::vector<InvertedWalkIndex::Replicate> reps(
      static_cast<size_t>(header.num_replicates));
  std::vector<PostingEntry> scratch;
  for (auto& rep : reps) {
    RWDOM_ASSIGN_OR_RETURN(SectionV3 section,
                           ReadSectionV3(in, header, path));
    rep.entry_offsets.resize(static_cast<size_t>(num_nodes) + 1);
    rep.byte_offsets.resize(static_cast<size_t>(num_nodes) + 1);
    in.read(reinterpret_cast<char*>(rep.entry_offsets.data()),
            static_cast<std::streamsize>(rep.entry_offsets.size() *
                                         sizeof(uint32_t)));
    in.read(reinterpret_cast<char*>(rep.byte_offsets.data()),
            static_cast<std::streamsize>(rep.byte_offsets.size() *
                                         sizeof(uint32_t)));
    if (!in.good()) return Status::Corruption("truncated offsets: " + path);
    Fingerprint offsets_sum;
    offsets_sum.Update(rep.entry_offsets.data(),
                       rep.entry_offsets.size() * sizeof(uint32_t));
    offsets_sum.Update(rep.byte_offsets.data(),
                       rep.byte_offsets.size() * sizeof(uint32_t));
    if (offsets_sum.Digest() != section.offsets_checksum) {
      return Status::Corruption("offsets checksum mismatch: " + path);
    }

    rep.data.resize(static_cast<size_t>(section.data_bytes));
    const uint64_t num_blocks = NumDataBlocks(section.data_bytes);
    for (uint64_t b = 0; b < num_blocks; ++b) {
      uint64_t block_checksum = 0;
      if (!ReadPod(in, &block_checksum)) {
        return Status::Corruption("truncated posting block: " + path);
      }
      const uint64_t begin = b * kDataBlockBytes;
      const uint64_t len =
          std::min(kDataBlockBytes, section.data_bytes - begin);
      in.read(reinterpret_cast<char*>(rep.data.data() + begin),
              static_cast<std::streamsize>(len));
      if (!in.good()) {
        return Status::Corruption("truncated posting block: " + path);
      }
      if (FingerprintBytes(rep.data.data() + begin, len) != block_checksum) {
        return Status::Corruption(
            StrFormat("posting block %llu checksum mismatch: %s",
                      static_cast<unsigned long long>(b), path.c_str()));
      }
    }

    // Structural validation: offsets monotone and bounded, and every
    // list's varint stream decodes to in-range ascending postings while
    // consuming exactly its byte span.
    if (rep.entry_offsets.front() != 0 ||
        rep.entry_offsets.back() != section.entry_count ||
        rep.byte_offsets.front() != 0 ||
        rep.byte_offsets.back() != section.data_bytes) {
      return Status::Corruption("offset bounds mismatch: " + path);
    }
    for (size_t v = 1; v < rep.entry_offsets.size(); ++v) {
      if (rep.entry_offsets[v] < rep.entry_offsets[v - 1] ||
          rep.byte_offsets[v] < rep.byte_offsets[v - 1]) {
        return Status::Corruption("non-monotone offsets: " + path);
      }
    }
    for (size_t v = 0; v + 1 < rep.entry_offsets.size(); ++v) {
      const int64_t count =
          static_cast<int64_t>(rep.entry_offsets[v + 1]) -
          static_cast<int64_t>(rep.entry_offsets[v]);
      if (!DecodePostingListChecked(
              rep.data.data() + rep.byte_offsets[v],
              rep.data.data() + rep.byte_offsets[v + 1], count, weight_bits,
              num_nodes, header.key.length, &scratch)) {
        return Status::Corruption("malformed posting list: " + path);
      }
    }
  }
  in.peek();
  if (!in.eof()) return Status::Corruption("trailing bytes: " + path);
  return LoadedSnapshot{
      InvertedWalkIndex(num_nodes, header.key.length, std::move(reps)),
      header.key};
}

Status WalkIndexSerializer::Save(const InvertedWalkIndex& index,
                                 const ArtifactKey& key,
                                 const std::string& path) {
  const std::string tmp_path = path + ".tmp";
  {
    RWDOM_RETURN_IF_ERROR(FaultPoint("persist.open"));
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open for writing: " + tmp_path);

    char body[kHeaderBodyBytes];
    size_t at = 0;
    auto put = [&](const void* data, size_t size) {
      std::memcpy(body + at, data, size);
      at += size;
    };
    const int32_t num_nodes = index.num_nodes_;
    const int32_t num_replicates = index.num_replicates();
    put(&key.length, sizeof(int32_t));
    put(&key.num_samples, sizeof(int32_t));
    put(&key.seed, sizeof(uint64_t));
    put(&key.substrate_fingerprint, sizeof(uint64_t));
    put(&num_nodes, sizeof(int32_t));
    put(&num_replicates, sizeof(int32_t));

    out.write(kMagic, sizeof(kMagic));
    WritePod(out, kVersion);
    WritePod(out, FingerprintBytes(body, sizeof(body)));
    out.write(body, sizeof(body));

    for (const auto& rep : index.replicates_) {
      const uint64_t entry_count = rep.entry_offsets.back();
      const uint64_t data_bytes = rep.data.size();
      Fingerprint offsets_sum;
      offsets_sum.Update(rep.entry_offsets.data(),
                         rep.entry_offsets.size() * sizeof(uint32_t));
      offsets_sum.Update(rep.byte_offsets.data(),
                         rep.byte_offsets.size() * sizeof(uint32_t));
      WritePod(out, entry_count);
      WritePod(out, data_bytes);
      WritePod(out, offsets_sum.Digest());
      out.write(reinterpret_cast<const char*>(rep.entry_offsets.data()),
                static_cast<std::streamsize>(rep.entry_offsets.size() *
                                             sizeof(uint32_t)));
      out.write(reinterpret_cast<const char*>(rep.byte_offsets.data()),
                static_cast<std::streamsize>(rep.byte_offsets.size() *
                                             sizeof(uint32_t)));
      const uint64_t num_blocks = NumDataBlocks(data_bytes);
      for (uint64_t b = 0; b < num_blocks; ++b) {
        const uint64_t begin = b * kDataBlockBytes;
        const uint64_t len = std::min(kDataBlockBytes, data_bytes - begin);
        WritePod(out, FingerprintBytes(rep.data.data() + begin, len));
        out.write(reinterpret_cast<const char*>(rep.data.data() + begin),
                  static_cast<std::streamsize>(len));
      }
    }
    // The fault point sits between body write and flush/close: a fire
    // here leaves a plausible torn .tmp on disk, exactly what a full
    // disk or a crash would. Callers must see the failure (and the .tmp
    // must be deleted) — never a published torn snapshot.
    if (Status injected = FaultPoint("persist.write"); !injected.ok()) {
      out.close();
      std::remove(tmp_path.c_str());
      return injected;
    }
    out.flush();
    // close() flushes the last buffered bytes; ENOSPC commonly surfaces
    // only here, so its failure is a write failure like any other.
    const bool flushed = static_cast<bool>(out);
    out.close();
    if (!flushed || out.fail()) {
      std::remove(tmp_path.c_str());
      return Status::IoError("write failed: " + tmp_path);
    }
  }
  if (Status injected = FaultPoint("persist.rename"); !injected.ok()) {
    std::remove(tmp_path.c_str());
    return injected;
  }
  // The snapshot only appears under its published name fully written:
  // rename is atomic within a filesystem, so readers see the old file,
  // no file, or the complete new one — never a torn prefix.
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("cannot publish snapshot: " + path);
  }
  return Status::OK();
}

Result<SnapshotMeta> WalkIndexSerializer::Inspect(const std::string& path,
                                                  bool verify) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open: " + path);
  in.seekg(0, std::ios::end);
  const int64_t file_bytes = static_cast<int64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  RWDOM_ASSIGN_OR_RETURN(Header header, ReadHeader(in, path));

  SnapshotMeta meta;
  meta.version = kVersion;
  meta.key = header.key;
  meta.num_nodes = header.num_nodes;
  meta.length = header.key.length;
  meta.num_replicates = header.num_replicates;
  meta.file_bytes = file_bytes;

  const int64_t offsets_count = static_cast<int64_t>(meta.num_nodes) + 1;

  // Per replicate: u32 offset arrays, then the posting stream in
  // checksummed blocks.
  std::vector<uint32_t> offsets;
  std::vector<char> buffer;
  for (int32_t i = 0; i < header.num_replicates; ++i) {
    RWDOM_ASSIGN_OR_RETURN(SectionV3 section,
                           ReadSectionV3(in, header, path));
    meta.total_entries += static_cast<int64_t>(section.entry_count);
    const int64_t offsets_bytes =
        2 * offsets_count * static_cast<int64_t>(sizeof(uint32_t));
    if (verify) {
      offsets.resize(static_cast<size_t>(2 * offsets_count));
      in.read(reinterpret_cast<char*>(offsets.data()),
              static_cast<std::streamsize>(offsets_bytes));
      if (!in.good()) {
        return Status::Corruption("truncated offsets: " + path);
      }
      if (FingerprintBytes(offsets.data(), static_cast<size_t>(offsets_bytes)) !=
          section.offsets_checksum) {
        return Status::Corruption("offsets checksum mismatch: " + path);
      }
      const uint64_t num_blocks = NumDataBlocks(section.data_bytes);
      for (uint64_t b = 0; b < num_blocks; ++b) {
        uint64_t block_checksum = 0;
        if (!ReadPod(in, &block_checksum)) {
          return Status::Corruption("truncated posting block: " + path);
        }
        const uint64_t begin = b * kDataBlockBytes;
        const uint64_t len =
            std::min(kDataBlockBytes, section.data_bytes - begin);
        buffer.resize(static_cast<size_t>(len));
        in.read(buffer.data(), static_cast<std::streamsize>(len));
        if (!in.good()) {
          return Status::Corruption("truncated posting block: " + path);
        }
        if (FingerprintBytes(buffer.data(), buffer.size()) !=
            block_checksum) {
          return Status::Corruption(
              StrFormat("posting block %llu checksum mismatch: %s",
                        static_cast<unsigned long long>(b), path.c_str()));
        }
      }
    } else {
      const uint64_t num_blocks = NumDataBlocks(section.data_bytes);
      const int64_t body_bytes =
          offsets_bytes + static_cast<int64_t>(num_blocks) * 8 +
          static_cast<int64_t>(section.data_bytes);
      // Seeking past EOF succeeds silently, so the body's declared end is
      // checked against the measured file size instead.
      const int64_t body_end = static_cast<int64_t>(in.tellg()) + body_bytes;
      if (body_end > file_bytes) {
        return Status::Corruption("truncated replicate: " + path);
      }
      in.seekg(static_cast<std::streamsize>(body_end));
    }
  }
  if (verify) {
    in.peek();
    if (!in.eof()) return Status::Corruption("trailing bytes: " + path);
  }
  return meta;
}

}  // namespace rwdom
