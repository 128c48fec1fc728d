#include "obs/json.h"

#include <algorithm>
#include <array>
#include <bit>
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

using Uint128 = unsigned __int128;

/// The binary exponents floor(log2 |x|) of the doubles write_exact17()
/// takes, 2^-53 <= |x| < 2^57: those whose e0 = floor(exp2 * log10 2)
/// is -16..16, so that 5^(16 - e0) fits the 128-bit product.
constexpr int kMinExp2 = -53;
constexpr int kMaxExp2 = 56;
constexpr std::uint64_t kTenTo16 = 10'000'000'000'000'000;
constexpr std::uint64_t kTenTo17 = 100'000'000'000'000'000;

/// floor(e * log10 2), by a multiply and a shift (78913 / 2^18 is just
/// below log10 2).
constexpr int floor_log10_pow2(int e) { return (e * 78913) >> 18; }

constexpr Uint128 pow_u128(Uint128 base, int exponent) {
  Uint128 p = 1;
  for (int i = 0; i < exponent; ++i) p *= base;
  return p;
}

/// Whether floor_log10_pow2(e) is d with 10^d <= 2^e < 10^(d+1) for
/// every exponent write_exact17() takes.
constexpr bool floor_log10_pow2_is_exact() {
  for (int e = kMinExp2; e <= kMaxExp2; ++e) {
    const int d = floor_log10_pow2(e);
    const bool exact =
        e >= 0 ? pow_u128(10, d) <= pow_u128(2, e) &&
                     pow_u128(2, e) < pow_u128(10, d + 1)
               : pow_u128(10, -d - 1) < pow_u128(2, -e) &&
                     pow_u128(2, -e) <= pow_u128(10, -d);
    if (!exact) return false;
  }
  return true;
}
static_assert(floor_log10_pow2_is_exact());
static_assert(floor_log10_pow2(kMinExp2) == -16 &&
              floor_log10_pow2(kMaxExp2) == 16);

/// 5^k for k = 0..32: m * 5^32 < 2^53 * 2^75 fits in 128 bits.
constexpr auto kPow5 = [] {
  std::array<Uint128, 33> p{};
  for (std::size_t k = 0; k < p.size(); ++k)
    p[k] = pow_u128(5, static_cast<int>(k));
  return p;
}();

/// "00" "01" ... "99".
constexpr auto kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (std::size_t i = 0; i < 100; ++i) {
    pairs[2 * i] = static_cast<char>('0' + i / 10);
    pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

/// Writes the 8 decimal digits of `v` < 10^8 at `out`. Two of these on
/// 32-bit halves write a 17-digit significand ~10 ns faster than one
/// std::to_chars on the 64-bit value (DESIGN.md, the JSON writer).
void write8(char* out, std::uint32_t v) {
  const std::uint32_t high = v / 10000;
  const std::uint32_t low = v % 10000;
  std::memcpy(out, &kDigitPairs[2 * (high / 100)], 2);
  std::memcpy(out + 2, &kDigitPairs[2 * (high % 100)], 2);
  std::memcpy(out + 4, &kDigitPairs[2 * (low / 100)], 2);
  std::memcpy(out + 6, &kDigitPairs[2 * (low % 100)], 2);
}

/// Writes a normal `value` with 2^-53 <= |value| < 2^57 exactly as
/// "%.17g" does, in integer arithmetic, and returns the end. With
/// |value| = m * 2^q and 10^e0 <= |value| < 10^(e0 + 2),
/// |value| * 10^(16 - e0) = m * 5^(16 - e0) * 2^(q + 16 - e0) is an
/// exact 128-bit product and shift: 17 or 18 integer digits and a
/// binary fraction, rounded half to even to 17 digits.
char* write_exact17(char* out, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  if (bits >> 63 != 0) *out++ = '-';
  const int exp2 = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                          (std::uint64_t{1} << 52);
  const int e0 = floor_log10_pow2(exp2);
  const int k = 16 - e0;  // 0..32
  // |value| * 10^k = (m * 5^k) / 2^shift, with q = exp2 - 52.
  const int shift = 52 - exp2 - k;
  PREPARE_DCHECK(shift >= -4 && shift <= 73) << "shift " << shift;
  const Uint128 scaled = Uint128{m} * kPow5[static_cast<std::size_t>(k)];
  std::uint64_t whole = 0;  // in [10^16, 10^18)
  Uint128 rest = 0;         // the fraction, rest / 2^shift
  Uint128 half = 0;
  if (shift > 0) {
    whole = static_cast<std::uint64_t>(scaled >> shift);
    rest = scaled & ((Uint128{1} << shift) - 1);
    half = Uint128{1} << (shift - 1);
  } else {
    whole = static_cast<std::uint64_t>(scaled) << -shift;
  }
  int exp10 = e0;
  std::uint64_t digits = whole;
  bool round_up = false;
  if (whole >= kTenTo17) {  // an 18th digit, folded into the rounding
    const std::uint64_t last = whole % 10;
    digits = whole / 10;
    ++exp10;
    round_up = last > 5 || (last == 5 && (rest != 0 || (digits & 1) != 0));
  } else {
    round_up = shift > 0 &&
               (rest > half || (rest == half && (digits & 1) != 0));
  }
  if (round_up && ++digits == kTenTo17) {
    digits = kTenTo16;
    ++exp10;
  }

  char text[17] = {};
  const auto high = static_cast<std::uint32_t>(digits / 100'000'000);
  text[0] = static_cast<char>('0' + high / 100'000'000);
  write8(text + 1, high % 100'000'000);
  write8(text + 9, static_cast<std::uint32_t>(digits % 100'000'000));
  int len = 17;  // significant digits left once trailing zeros go
  while (text[len - 1] == '0') --len;

  if (exp10 >= -4 && exp10 < 17) {  // fixed notation
    if (exp10 >= 0) {
      const int int_len = exp10 + 1;
      std::memcpy(out, text, static_cast<std::size_t>(int_len));
      out += int_len;
      if (len > int_len) {
        *out++ = '.';
        std::memcpy(out, text + int_len,
                    static_cast<std::size_t>(len - int_len));
        out += len - int_len;
      }
    } else {  // "0." and -exp10 - 1 zeros
      std::memcpy(out, "0.000", static_cast<std::size_t>(1 - exp10));
      out += 1 - exp10;
      std::memcpy(out, text, static_cast<std::size_t>(len));
      out += len;
    }
    return out;
  }
  *out++ = text[0];
  if (len > 1) {
    *out++ = '.';
    std::memcpy(out, text + 1, static_cast<std::size_t>(len - 1));
    out += len - 1;
  }
  *out++ = 'e';
  *out++ = exp10 < 0 ? '-' : '+';
  const int abs_exp10 = exp10 < 0 ? -exp10 : exp10;  // 5..17
  std::memcpy(out, &kDigitPairs[static_cast<std::size_t>(2 * abs_exp10)], 2);
  return out + 2;
}

/// Writes `value` at `first` and returns the end: null when it is not
/// finite, else printf's "%.17g" in the C locale, so every double
/// round-trips (not the shortest form: 0.1 prints as
/// 0.10000000000000001). write_exact17() takes the normal magnitudes it
/// covers; zero, subnormals and the rest go to std::to_chars at
/// precision 17, which the standard defines as that printf format.
/// `last` must leave at least 32 bytes.
char* write_number(char* first, char* last, double value) {
  if (!std::isfinite(value)) return std::copy_n("null", 4, first);
  const int exp2 =
      static_cast<int>((std::bit_cast<std::uint64_t>(value) >> 52) & 0x7ff) -
      1023;
  if (exp2 >= kMinExp2 && exp2 <= kMaxExp2)
    return write_exact17(first, value);
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
