// Binary serialisation used wherever data crosses a simulated node boundary
// or is written to a checkpoint chunk. Encoding is little-endian and
// self-delimiting for variable-size fields (length-prefixed).
#ifndef SDG_COMMON_SERIALIZE_H_
#define SDG_COMMON_SERIALIZE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace sdg {

// Appends fields to a growable byte buffer.
class BinaryWriter {
 public:
  BinaryWriter() = default;
  explicit BinaryWriter(size_t reserve) { buffer_.reserve(reserve); }

  template <typename T>
    requires std::is_arithmetic_v<T> || std::is_enum_v<T>
  void Write(T value) {
    size_t offset = buffer_.size();
    buffer_.resize(offset + sizeof(T));
    std::memcpy(buffer_.data() + offset, &value, sizeof(T));
  }

  void WriteString(std::string_view s) {
    Write<uint64_t>(s.size());
    WriteBytes(s.data(), s.size());
  }

  void WriteBytes(const void* data, size_t size) {
    if (size == 0) {
      return;  // `data` may be null (empty vector): memcpy(nullptr, ..., 0) is UB
    }
    size_t offset = buffer_.size();
    buffer_.resize(offset + size);
    std::memcpy(buffer_.data() + offset, data, size);
  }

  template <typename T>
    requires std::is_arithmetic_v<T>
  void WriteVector(const std::vector<T>& v) {
    Write<uint64_t>(v.size());
    WriteBytes(v.data(), v.size() * sizeof(T));
  }

  void WriteStringVector(const std::vector<std::string>& v) {
    Write<uint64_t>(v.size());
    for (const auto& s : v) {
      WriteString(s);
    }
  }

  template <typename K, typename V>
    requires std::is_arithmetic_v<K> && std::is_arithmetic_v<V>
  void WriteMap(const std::unordered_map<K, V>& m) {
    Write<uint64_t>(m.size());
    for (const auto& [k, v] : m) {
      Write(k);
      Write(v);
    }
  }

  // Resets the writer for reuse while keeping the allocated capacity — the
  // basis of thread-local scratch writers on serialisation hot paths.
  void Clear() { buffer_.clear(); }

  size_t size() const { return buffer_.size(); }
  const uint8_t* data() const { return buffer_.data(); }
  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t> TakeBuffer() && { return std::move(buffer_); }

 private:
  std::vector<uint8_t> buffer_;
};

// Reads fields back in the order they were written. All reads are
// bounds-checked; overruns return OUT_OF_RANGE rather than crashing, so a
// corrupted checkpoint chunk or message is reported, not fatal.
class BinaryReader {
 public:
  explicit BinaryReader(const std::vector<uint8_t>& buffer)
      : data_(buffer.data()), size_(buffer.size()) {}
  BinaryReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
    requires std::is_arithmetic_v<T> || std::is_enum_v<T>
  Result<T> Read() {
    if (pos_ + sizeof(T) > size_) {
      return Status(StatusCode::kOutOfRange, "read past end of buffer");
    }
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  Result<std::string> ReadString() {
    SDG_ASSIGN_OR_RETURN(uint64_t len, Read<uint64_t>());
    if (pos_ + len > size_) {
      return Status(StatusCode::kOutOfRange, "string length past end of buffer");
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }

  template <typename T>
    requires std::is_arithmetic_v<T>
  Result<std::vector<T>> ReadVector() {
    SDG_ASSIGN_OR_RETURN(uint64_t count, Read<uint64_t>());
    if (pos_ + count * sizeof(T) > size_) {
      return Status(StatusCode::kOutOfRange, "vector length past end of buffer");
    }
    std::vector<T> v(count);
    if (count == 0) {
      return v;  // v.data() may be null
    }
    std::memcpy(v.data(), data_ + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return v;
  }

  Result<std::vector<std::string>> ReadStringVector() {
    SDG_ASSIGN_OR_RETURN(uint64_t count, Read<uint64_t>());
    std::vector<std::string> v;
    v.reserve(std::min<uint64_t>(count, remaining()));
    for (uint64_t i = 0; i < count; ++i) {
      SDG_ASSIGN_OR_RETURN(std::string s, ReadString());
      v.push_back(std::move(s));
    }
    return v;
  }

  template <typename K, typename V>
    requires std::is_arithmetic_v<K> && std::is_arithmetic_v<V>
  Result<std::unordered_map<K, V>> ReadMap() {
    SDG_ASSIGN_OR_RETURN(uint64_t count, Read<uint64_t>());
    std::unordered_map<K, V> m;
    m.reserve(std::min<uint64_t>(count, remaining() / (sizeof(K) + sizeof(V))));
    for (uint64_t i = 0; i < count; ++i) {
      SDG_ASSIGN_OR_RETURN(K k, Read<K>());
      SDG_ASSIGN_OR_RETURN(V v, Read<V>());
      m.emplace(k, v);
    }
    return m;
  }

  // Advances past `n` bytes without copying them.
  Status Skip(size_t n) {
    if (pos_ + n > size_) {
      return Status(StatusCode::kOutOfRange, "skip past end of buffer");
    }
    pos_ += n;
    return Status::Ok();
  }

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace sdg

#endif  // SDG_COMMON_SERIALIZE_H_
