#include "obs/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>

#include "common/check.h"

namespace prepare {
namespace obs {

namespace {

/// Escapes `s` for a JSON string literal, handing `put` each run of
/// clean bytes in one piece and each escape sequence.
template <typename Put>
void escape(std::string_view s, Put put) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t clean = 0;  // start of the pending clean run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    put(s.substr(clean, i - clean));
    clean = i + 1;
    switch (c) {
      case '"': put("\\\""); break;
      case '\\': put("\\\\"); break;
      case '\b': put("\\b"); break;
      case '\f': put("\\f"); break;
      case '\n': put("\\n"); break;
      case '\r': put("\\r"); break;
      case '\t': put("\\t"); break;
      default: {
        const char unicode[6] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                 kHex[c & 0xf]};
        put(std::string_view(unicode, sizeof unicode));
      }
    }
  }
  put(s.substr(clean));
}

/// Writes `value` at `first` and returns the end: null when it is not
/// finite, else 17 significant digits, so every double round-trips (not
/// the shortest form: 0.1 prints as 0.10000000000000001). The standard
/// defines this to_chars as printf's "%.*g" in the C locale. `last`
/// must leave at least 32 bytes.
char* write_number(char* first, char* last, double value) {
  if (!std::isfinite(value)) return std::copy_n("null", 4, first);
  return std::to_chars(first, last, value, std::chars_format::general, 17)
      .ptr;
}

}  // namespace

void JsonObject::flush() {
  os_.write(line_, static_cast<std::streamsize>(len_));
  flushed_ += len_;
  len_ = 0;
}

void JsonObject::make_room(std::size_t n) {
  if (kLineBytes - len_ < n) flush();
}

void JsonObject::append(std::string_view bytes) {
  if (bytes.empty()) return;  // an empty view may carry a null data()
  if (bytes.size() > kLineBytes - len_) {
    flush();
    if (bytes.size() > kLineBytes) {
      os_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      flushed_ += bytes.size();
      return;
    }
  }
  std::memcpy(line_ + len_, bytes.data(), bytes.size());
  len_ += bytes.size();
}

void JsonObject::append_escaped(std::string_view s) {
  escape(s, [this](std::string_view bytes) { append(bytes); });
}

void JsonObject::begin_field(std::string_view key) {
  make_room(2);
  if (!first_) line_[len_++] = ',';
  first_ = false;
  line_[len_++] = '"';
  append_escaped(key);
  make_room(2);
  line_[len_++] = '"';
  line_[len_++] = ':';
}

JsonObject& JsonObject::field(std::string_view key, std::string_view value) {
  begin_field(key);
  make_room(1);
  line_[len_++] = '"';
  append_escaped(value);
  make_room(1);
  line_[len_++] = '"';
  return *this;
}

JsonObject& JsonObject::field(std::string_view key, double value) {
  begin_field(key);
  make_room(kNumberBytes);
  const char* end = write_number(line_ + len_, line_ + kLineBytes, value);
  len_ = static_cast<std::size_t>(end - line_);
  return *this;
}

JsonObject& JsonObject::field(std::string_view key, std::uint64_t value) {
  begin_field(key);
  make_room(kNumberBytes);
  const char* end = std::to_chars(line_ + len_, line_ + kLineBytes, value).ptr;
  len_ = static_cast<std::size_t>(end - line_);
  return *this;
}

JsonObject& JsonObject::field(std::string_view key, int value) {
  begin_field(key);
  make_room(kNumberBytes);
  const char* end = std::to_chars(line_ + len_, line_ + kLineBytes, value).ptr;
  len_ = static_cast<std::size_t>(end - line_);
  return *this;
}

std::string_view JsonObject::written_since(std::size_t mark) const {
  PREPARE_DCHECK(mark <= written());
  if (mark < flushed_) return {};
  return std::string_view(line_ + (mark - flushed_), written() - mark);
}

JsonObject& JsonObject::append_fields(std::string_view fields) {
  PREPARE_DCHECK(!first_) << "appended fields must follow a first field";
  append(fields);
  return *this;
}

void JsonObject::close() {
  if (closed_) return;
  closed_ = true;
  make_room(2);
  line_[len_++] = '}';
  line_[len_++] = '\n';
  flush();
}

}  // namespace obs
}  // namespace prepare
