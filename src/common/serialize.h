// Byte-exact codec for checkpoint blobs (session, market and registry
// snapshots). Each layout is written once, as a function template over the
// codec `Io` that ByteWriter instantiates to encode and ByteReader to
// decode:
//
//   template <typename Io>
//   Status Walk(Io& io, CodecRef<Io, ChoiceObservation> o) {
//     return io(o.task, o.worker, o.choice);
//   }
//
// `io(a, b, ...)` visits each value in order and stops at the first error;
// a class type is visited through the `Walk` overload that argument-
// dependent lookup finds for it. ByteWriter's calls never fail.
//
// The encoding is a straight-line little-endian dump with no tags, varints
// or padding, and equal state gives equal bytes (the round-trip property
// tests memcmp blobs; tests/service_test.cc pins them by digest):
//
//   uint8_t, bool          one byte (a decoded bool above 1 is refused)
//   other integers         their own width
//   double                 its IEEE-754 bit pattern (restores bit-identically)
//   std::string            u32 length, then the bytes
//   std::vector, std::map  u32 count, then each element (a map's: key, value)
//   std::array             each element, no count
//   InRange{enum, max}     its underlying integer; decoding refuses one > max
//
// Decoding never trusts the blob: every read is bounds-checked, and every
// count goes through one read that refuses a count above the bytes left
// before anything is sized from it (every element encodes to at least one
// byte, so no valid blob is refused). Each refusal is Status::DataLoss.
//
// SealBlob/OpenBlob frame a top-level blob as magic u32 | version u32 |
// body | FNV-1a 64 of every byte before it. OpenBlob checks the checksum,
// then the magic (kDataLoss), then the version (kFailedPrecondition; the
// versioning policy in DESIGN.md).
#ifndef CDB_COMMON_SERIALIZE_H_
#define CDB_COMMON_SERIALIZE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace cdb {

// An enum field with its largest valid value.
template <typename E>
struct InRange {
  E& value;
  std::remove_const_t<E> max;
};
template <typename E>
InRange(E&, std::remove_const_t<E>) -> InRange<E>;

namespace internal_codec {
// kIs<T, std::vector>: T is a specialization of that class template.
template <typename T, template <typename...> class Of>
inline constexpr bool kIs = false;
template <template <typename...> class Of, typename... Args>
inline constexpr bool kIs<Of<Args...>, Of> = true;
template <typename T>
inline constexpr bool kIsArray = false;
template <typename T, size_t N>
inline constexpr bool kIsArray<std::array<T, N>> = true;
}  // namespace internal_codec

// FNV-1a 64-bit over `data`; the checksum that ends every framed blob.
[[nodiscard]] uint64_t SnapshotChecksum(std::string_view data);

// Append-only encoder. Take the buffer with Take() (or read data() to
// checksum a prefix).
class ByteWriter {
 public:
  // Encodes each value in order. Always Ok; the Status lets one walk serve
  // both directions.
  template <typename... Ts>
  Status operator()(const Ts&... values) {
    (Put(values), ...);
    return Status::Ok();
  }

  [[nodiscard]] const std::string& data() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  template <typename T>
  void Put(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      PutFixed(value ? 1 : 0, 1);
    } else if constexpr (std::is_integral_v<T>) {
      PutFixed(static_cast<uint64_t>(value), sizeof(T));
    } else if constexpr (std::is_same_v<T, double>) {
      PutFixed(std::bit_cast<uint64_t>(value), sizeof(double));
    } else if constexpr (std::is_same_v<T, std::string>) {
      PutFixed(value.size(), sizeof(uint32_t));
      out_.append(value);
    } else if constexpr (internal_codec::kIs<T, std::vector> ||
                         internal_codec::kIs<T, std::map>) {
      PutFixed(value.size(), sizeof(uint32_t));
      for (const auto& element : value) Put(element);
    } else if constexpr (internal_codec::kIs<T, std::pair>) {  // Map entry.
      Put(value.first);
      Put(value.second);
    } else if constexpr (internal_codec::kIsArray<T>) {
      for (const auto& element : value) Put(element);
    } else if constexpr (internal_codec::kIs<T, InRange>) {
      using E = decltype(value.max);
      Put(static_cast<std::underlying_type_t<E>>(value.value));
    } else {
      (void)Walk(*this, value);  // Encoding never fails.
    }
  }
  // The low `width` bytes of `word`, low to high, whatever the host order.
  void PutFixed(uint64_t word, size_t width);

  std::string out_;
};

// Bounds-checked decoder over a borrowed buffer. remaining() lets callers
// assert the blob was consumed exactly.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  // Decodes each value in order; the first refusal stops the walk.
  template <typename... Ts>
  Status operator()(Ts&&... values) {
    Status status;
    (void)((status = Get(values)).ok() && ...);
    return status;
  }

  [[nodiscard]] size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  Status Get(T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      uint64_t byte = 0;
      CDB_RETURN_IF_ERROR(GetFixed(&byte, 1));
      if (byte > 1) return RangeError("bool", byte, 1, pos_ - 1);
      value = byte != 0;
    } else if constexpr (std::is_integral_v<T>) {
      uint64_t word = 0;
      CDB_RETURN_IF_ERROR(GetFixed(&word, sizeof(T)));
      value = static_cast<T>(word);
    } else if constexpr (std::is_same_v<T, double>) {
      uint64_t bits = 0;
      CDB_RETURN_IF_ERROR(GetFixed(&bits, sizeof(double)));
      value = std::bit_cast<double>(bits);
    } else if constexpr (std::is_same_v<T, std::string>) {
      uint32_t n = 0;
      CDB_RETURN_IF_ERROR(GetCount(&n));
      value.assign(data_.data() + pos_, n);
      pos_ += n;
    } else if constexpr (internal_codec::kIs<T, std::vector>) {
      uint32_t n = 0;
      CDB_RETURN_IF_ERROR(GetCount(&n));
      value.assign(n, {});
      for (auto& element : value) CDB_RETURN_IF_ERROR(Get(element));
    } else if constexpr (internal_codec::kIs<T, std::map>) {
      uint32_t n = 0;
      CDB_RETURN_IF_ERROR(GetCount(&n));
      value.clear();
      for (uint32_t i = 0; i < n; ++i) {
        std::pair<typename T::key_type, typename T::mapped_type> entry;
        CDB_RETURN_IF_ERROR((*this)(entry.first, entry.second));
        value.insert_or_assign(std::move(entry.first), std::move(entry.second));
      }
    } else if constexpr (internal_codec::kIsArray<T>) {
      for (auto& element : value) CDB_RETURN_IF_ERROR(Get(element));
    } else if constexpr (internal_codec::kIs<T, InRange>) {
      using E = decltype(value.max);
      std::underlying_type_t<E> raw{};
      CDB_RETURN_IF_ERROR(Get(raw));
      if (raw > static_cast<std::underlying_type_t<E>>(value.max)) {
        return RangeError("enum", static_cast<uint64_t>(raw),
                          static_cast<uint64_t>(value.max), pos_ - sizeof(raw));
      }
      value.value = static_cast<E>(raw);
    } else {
      return Walk(*this, value);
    }
    return Status::Ok();
  }
  Status GetFixed(uint64_t* word, size_t width);
  // The one read of a u32 count: a count above remaining() is refused
  // before the caller sizes anything from it.
  Status GetCount(uint32_t* count);
  // The value read at offset `at` was above `max`.
  [[nodiscard]] static Status RangeError(const char* what, uint64_t value,
                                         uint64_t max, size_t at);

  std::string_view data_;
  size_t pos_ = 0;
};

// What a layout walk sees of the value it visits: a const reference when
// encoding, a mutable one when decoding.
template <typename Io, typename T>
using CodecRef =
    std::conditional_t<std::is_same_v<Io, ByteWriter>, const T&, T&>;

// The frame of one top-level blob type.
struct BlobFormat {
  const char* name;  // Error-message prefix, e.g. "session snapshot".
  uint32_t magic;
  uint32_t version;
};

// Writes the magic and version, lets `body` append the rest, and seals the
// blob with its checksum.
template <typename Body>
[[nodiscard]] std::string SealBlob(const BlobFormat& format, Body&& body) {
  ByteWriter writer;
  (void)writer(format.magic, format.version);  // Encoding never fails.
  body(writer);
  (void)writer(SnapshotChecksum(writer.data()));
  return writer.Take();
}

// Checks the checksum, then the magic, then the version, and returns a
// reader over the body.
[[nodiscard]] Result<ByteReader> OpenBlob(std::string_view blob,
                                          const BlobFormat& format);

}  // namespace cdb

#endif  // CDB_COMMON_SERIALIZE_H_
