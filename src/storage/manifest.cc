#include "storage/manifest.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>

#include "common/fault_injector.h"

namespace bqs {

// --- codec ----------------------------------------------------------------

void EncodeManifest(const Manifest& manifest, std::string* out) {
  const std::size_t header = wal::BeginHeader(
      manifestfmt::kManifestMagic, manifestfmt::kManifestFormatVersion,
      manifest.quant, out);
  wal::PutU64(out, manifest.last_applied_seq);
  wal::PutU32(out, static_cast<uint32_t>(manifest.files.size()));
  wal::EndHeader(header, out);

  for (const ManifestBlockFile& file : manifest.files) {
    const std::size_t frame = wal::BeginFrame(out);
    varint::PutU64(out, file.file_id);
    varint::PutU64(out, file.file_bytes);
    varint::PutU64(out, file.blocks.size());
    for (const ManifestBlockEntry& block : file.blocks) {
      varint::PutU64(out, block.offset);
      blk::PutBlockMeta(out, block.meta);
    }
    wal::EndFrame(frame, out);
  }
}

bool DecodeManifest(std::span<const uint8_t> bytes, Manifest* out) {
  wal::HeaderStamp stamp;
  if (!wal::CheckHeader(bytes, manifestfmt::kManifestHeaderBytes,
                        manifestfmt::kManifestMagic,
                        manifestfmt::kManifestFormatVersion, &stamp)) {
    return false;
  }
  const uint8_t* const fields = bytes.data() + wal::kHeaderStampBytes;
  Manifest m;
  m.quant = stamp.quant;
  m.last_applied_seq = wal::GetU64(fields);
  const uint32_t file_count = wal::GetU32(fields + 8);
  // Each entry costs >= 8 framing bytes; a count that cannot fit is
  // corruption without further reads.
  if (file_count > (bytes.size() - manifestfmt::kManifestHeaderBytes) /
                           wal::kFrameHeaderBytes +
                       1) {
    return false;
  }

  std::size_t offset = manifestfmt::kManifestHeaderBytes;
  m.files.reserve(file_count);
  for (uint32_t i = 0; i < file_count; ++i) {
    const wal::Frame frame =
        wal::CheckFrame(bytes.subspan(offset), manifestfmt::kMaxEntryPayload);
    if (frame.status != wal::FrameStatus::kOk) return false;
    const std::size_t len = frame.payload.size();
    const uint8_t* q = frame.payload.data();
    const uint8_t* const qend = q + len;
    ManifestBlockFile file;
    uint64_t block_count = 0;
    if (!varint::GetU64(&q, qend, &file.file_id)) return false;
    if (!varint::GetU64(&q, qend, &file.file_bytes)) return false;
    if (!varint::GetU64(&q, qend, &block_count)) return false;
    // A block entry is >= 12 varint bytes (offset + 11 meta fields).
    if (block_count > len / 12 + 1) return false;
    file.blocks.reserve(static_cast<std::size_t>(block_count));
    for (uint64_t b = 0; b < block_count; ++b) {
      ManifestBlockEntry block;
      if (!varint::GetU64(&q, qend, &block.offset)) return false;
      if (!blk::GetBlockMeta(&q, qend, &block.meta)) return false;
      file.blocks.push_back(block);
    }
    if (q != qend) return false;  // trailing garbage inside the entry
    m.files.push_back(std::move(file));
    offset += frame.size();
  }
  if (offset != bytes.size()) return false;  // trailing bytes after entries
  *out = std::move(m);
  return true;
}

// --- file naming ----------------------------------------------------------

std::string BlockFileName(uint64_t file_id) {
  return NumberedFileName("blk-", file_id, ".bqb");
}

bool ParseBlockFileName(const std::string& name, uint64_t* file_id) {
  return ParseNumberedFileName(name, "blk-", ".bqb", file_id);
}

// --- I/O ------------------------------------------------------------------

Status WriteFileAtomic(const std::string& dir, const std::string& final_name,
                       std::string_view bytes, FaultInjector* injector,
                       const std::function<Status()>& crash_point) {
  const std::string tmp_path = dir + "/" + final_name + ".tmp";
  const std::string final_path = dir + "/" + final_name;

  if (injector != nullptr &&
      injector->ShouldFire(FaultSite::kEnospc)) {
    return Status::IoError("ENOSPC (injected): write " + tmp_path);
  }
  const int fd = ::open(tmp_path.c_str(),
                        O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoError("open " + tmp_path);
  Status st = WriteFully(fd, bytes, tmp_path);
  if (st.ok() && ::fsync(fd) != 0) st = ErrnoError("fsync " + tmp_path);
  if (::close(fd) != 0 && st.ok()) st = ErrnoError("close " + tmp_path);
  if (!st.ok()) return st;

  if (crash_point) BQS_RETURN_NOT_OK(crash_point());  // temp durable

  if (injector != nullptr &&
      injector->ShouldFire(FaultSite::kRenameFail)) {
    return Status::IoError("injected rename failure: " + tmp_path + " -> " +
                           final_path);
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return ErrnoError("rename " + tmp_path + " -> " + final_path);
  }

  if (crash_point) BQS_RETURN_NOT_OK(crash_point());  // renamed, dir not yet

  BQS_RETURN_NOT_OK(FsyncDir(dir));
  return Status::OK();
}

Status WriteManifest(const std::string& dir, const Manifest& manifest,
                     FaultInjector* injector,
                     const std::function<Status()>& crash_point) {
  std::string bytes;
  EncodeManifest(manifest, &bytes);
  return WriteFileAtomic(dir, kManifestName, bytes, injector, crash_point);
}

Status ReadManifest(const std::string& dir, Manifest* out) {
  const std::string path = dir + "/" + kManifestName;
  std::string bytes;
  BQS_RETURN_NOT_OK(ReadFileBytes(path, &bytes));
  if (!DecodeManifest(AsBytes(bytes), out)) {
    return Status::Corruption("manifest at " + path + " failed to decode");
  }
  return Status::OK();
}

}  // namespace bqs
