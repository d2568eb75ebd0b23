// Fixed-width binary records: the payload encoding of every Journal stream.
//
// A journal payload is a full-state snapshot written at every checkpoint
// (each task submit and completed file, each reservation grant, modify
// and defrag displacement), so its encoding sits on the simulation's hot
// path. Fields are copied bit for bit in native byte order: integers at
// their own width, doubles as their 8 IEEE bytes (so replay rebuilds every
// value exactly, infinities included), a flag as one byte, and strings as
// a 64-bit length followed by the bytes (so a label may hold any byte,
// spaces and newlines included). There are no separators, tags or
// versions; the writer and the reader of a stream agree on the field
// order, which DESIGN §6 lists per stream.
//
// RecordReader refuses anything that is not exactly such a record: every
// read is bounds-checked, a flag byte must be 0 or 1, a count is checked
// against the bytes left before the caller sizes anything from it, and
// finish() refuses trailing bytes. A refusal throws PreconditionError
// with the stream's message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/error.hpp"

namespace gridvc::recovery {

/// Integer or floating-point field of fixed width. bool is excluded: a
/// flag goes through put_flag()/flag(), which check its byte.
template <class T>
concept RecordScalar = std::is_arithmetic_v<T> && !std::is_same_v<T, bool>;

class RecordWriter {
 public:
  /// Start a new record in `buffer`, replacing what it held but keeping
  /// its capacity: a buffer the caller reuses stops allocating once it has
  /// grown to the largest record.
  explicit RecordWriter(std::string& buffer) : out_(buffer) { out_.clear(); }

  template <RecordScalar T>
  void put(T value) {
    out_.append(reinterpret_cast<const char*>(&value), sizeof(T));
  }
  void put_flag(bool value) { put<std::uint8_t>(value ? 1 : 0); }
  /// Element count of the variable-length part that follows.
  void put_count(std::size_t n) { put<std::uint64_t>(n); }
  void put_string(std::string_view text) {
    put_count(text.size());
    out_.append(text);
  }

 private:
  std::string& out_;
};

class RecordReader {
 public:
  /// `malformed` is the message of every refusal; `bytes` must outlive
  /// the reader.
  RecordReader(std::string_view bytes, const char* malformed)
      : bytes_(bytes), malformed_(malformed) {}

  template <RecordScalar T>
  T get() {
    need(sizeof(T));
    T value{};
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }
  bool flag() {
    const auto byte = get<std::uint8_t>();
    GRIDVC_REQUIRE(byte <= 1, malformed_);
    return byte == 1;
  }
  /// A count written by put_count(), each of whose elements takes at
  /// least `element_bytes` of what is left: a count the record cannot
  /// hold is refused before the caller allocates for it.
  std::size_t count(std::size_t element_bytes) {
    const auto n = get<std::uint64_t>();
    GRIDVC_REQUIRE(n <= remaining() / element_bytes, malformed_);
    return static_cast<std::size_t>(n);
  }
  std::string string() {
    const std::size_t n = count(1);
    std::string text(bytes_.substr(pos_, n));
    pos_ += n;
    return text;
  }
  /// The record must end exactly here.
  void finish() const { GRIDVC_REQUIRE(remaining() == 0, malformed_); }

 private:
  std::size_t remaining() const { return bytes_.size() - pos_; }
  void need(std::size_t n) const { GRIDVC_REQUIRE(n <= remaining(), malformed_); }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  const char* malformed_;
};

}  // namespace gridvc::recovery
