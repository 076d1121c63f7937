#include "common/serialize.h"

namespace cdb {

uint64_t SnapshotChecksum(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void ByteWriter::PutFixed(uint64_t word, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    out_.push_back(static_cast<char>((word >> (8 * i)) & 0xff));
  }
}

Status ByteReader::GetFixed(uint64_t* word, size_t width) {
  if (remaining() < width) {
    return Status::DataLoss("snapshot truncated: need " +
                            std::to_string(width) + " bytes at offset " +
                            std::to_string(pos_) + ", have " +
                            std::to_string(remaining()));
  }
  *word = 0;
  for (size_t i = 0; i < width; ++i) {
    *word |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
  }
  pos_ += width;
  return Status::Ok();
}

Status ByteReader::GetCount(uint32_t* count) {
  uint64_t word = 0;
  CDB_RETURN_IF_ERROR(GetFixed(&word, sizeof(uint32_t)));
  if (word > remaining()) {
    return Status::DataLoss("snapshot corrupt: count " + std::to_string(word) +
                            " at offset " + std::to_string(pos_ - 4) +
                            " exceeds the " + std::to_string(remaining()) +
                            " bytes left");
  }
  *count = static_cast<uint32_t>(word);
  return Status::Ok();
}

Status ByteReader::RangeError(const char* what, uint64_t value, uint64_t max,
                              size_t at) {
  return Status::DataLoss("snapshot corrupt: " + std::string(what) + " value " +
                          std::to_string(value) + " at offset " +
                          std::to_string(at) + " is above " +
                          std::to_string(max));
}

Result<ByteReader> OpenBlob(std::string_view blob, const BlobFormat& format) {
  const std::string name = format.name;
  if (blob.size() < sizeof(uint64_t)) {
    return Status::DataLoss(name + " shorter than its checksum");
  }
  const std::string_view body = blob.substr(0, blob.size() - sizeof(uint64_t));
  uint64_t checksum = 0;
  CDB_RETURN_IF_ERROR(ByteReader(blob.substr(body.size()))(checksum));
  if (checksum != SnapshotChecksum(body)) {
    return Status::DataLoss(name + " checksum mismatch");
  }
  ByteReader reader(body);
  uint32_t magic = 0;
  uint32_t version = 0;
  CDB_RETURN_IF_ERROR(reader(magic, version));
  if (magic != format.magic) {
    return Status::DataLoss(name + " magic mismatch");
  }
  if (version != format.version) {
    return Status::FailedPrecondition(
        name + " version " + std::to_string(version) +
        " not supported (expected " + std::to_string(format.version) + ")");
  }
  return reader;
}

}  // namespace cdb
