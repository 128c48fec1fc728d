// Minimal JSON writing for the observability layer.
//
// The trace exporter emits JSONL: one flat JSON object per line, keys
// and scalar values only (the schema tools/check_obs_schema.py
// validates). This header provides exactly that much JSON — a
// single-object line writer — instead of pulling in a JSON library the
// container may not have.
//
// A JsonObject builds its line in a fixed buffer of its own and hands
// it to the stream in one write. Keys and strings are escaped a clean
// run at a time (quotes, backslashes, control characters; UTF-8 passes
// through). A double prints exactly as printf's "%.17g" in the C
// locale, whatever the process locale is, and round-trips. A normal
// double with 2^-53 <= |x| < 2^57 (about 1.1e-16 to 1.4e17; 99% of
// the doubles a seed-111 perfbench `observed` run exports, the rest
// zeros) takes an exact integer path: one 128-bit product by a power
// of five and a shift give 17 or 18 digits and a remainder, rounded
// half to even. Zero, subnormals and other magnitudes go to
// std::to_chars at precision 17, which the standard defines as that
// printf format; integers go to std::to_chars too.
// Json.NumberMatchesPrintfPrecision17 checks the text of both paths
// against snprintf. JSON has no NaN/Inf literals,
// so a non-finite double is written as null (the schema checker treats
// null as "unavailable"). A writer that emits the same run of fields on
// many lines reads their bytes back from the buffer once
// (written_since()) and appends them again (append_fields()), so every
// byte still comes from the one formatter here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string_view>

namespace prepare {
namespace obs {

/// Writes one flat JSON object as a single line. Fields are emitted in
/// call order; the line, closed by `}\n`, reaches the stream in one
/// write on destruction (or by close()). A line longer than the buffer
/// reaches it in several writes, with the same bytes.
///
///   JsonObject(os).field("record", "event").field("t", 12.5);
class JsonObject {
 public:
  explicit JsonObject(std::ostream& os) : os_(os) { line_[len_++] = '{'; }
  ~JsonObject() { close(); }
  JsonObject(const JsonObject&) = delete;
  JsonObject& operator=(const JsonObject&) = delete;

  JsonObject& field(std::string_view key, std::string_view value);
  JsonObject& field(std::string_view key, double value);
  JsonObject& field(std::string_view key, std::uint64_t value);
  JsonObject& field(std::string_view key, int value);

  /// Bytes written to this line so far, flushed or not: a mark for
  /// written_since().
  std::size_t written() const { return flushed_ + len_; }
  /// The bytes written since `mark`, or an empty view when some of them
  /// already reached the stream (a line longer than the buffer). Valid
  /// until the next write to this object.
  std::string_view written_since(std::size_t mark) const;
  /// Appends `fields`, bytes that field() calls wrote after the first
  /// field of an earlier line (read back by written_since()): this line
  /// gets the bytes those calls would write again. At least one field
  /// must precede them, since they start with the separator.
  JsonObject& append_fields(std::string_view fields);

  /// Writes the line. Idempotent; further field() calls are invalid.
  void close();

 private:
  /// Holds every record the exporters write for the 13 attributes of a
  /// VM (the longest, an evidence tick record, is at most ~2.4 KB); a
  /// wider evidence layout makes longer lines, which reach the stream in
  /// several writes and cannot be read back whole.
  static constexpr std::size_t kLineBytes = 4096;
  /// Room kept for one number: "%.17g" of a double takes at most 24
  /// bytes, an integer at most 20.
  static constexpr std::size_t kNumberBytes = 32;

  /// Appends the separator and `"key":`.
  void begin_field(std::string_view key);
  void append(std::string_view bytes);
  void append_escaped(std::string_view s);
  /// Makes room for `n` more bytes (n <= kLineBytes), handing what the
  /// buffer holds to the stream if it is short of space.
  void make_room(std::size_t n);
  void flush();

  std::ostream& os_;
  bool closed_ = false;
  bool first_ = true;
  std::size_t flushed_ = 0;  ///< bytes of this line already in the stream
  std::size_t len_ = 0;  ///< filled prefix of line_, the only part read
  char line_[kLineBytes];
};

}  // namespace obs
}  // namespace prepare
