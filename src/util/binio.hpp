// Little-endian binary records for state snapshots.
//
// A record's wire format is written down once, as a field list: a
// generic callable `(io, record)` that makes one call on `io` per field,
// in wire order. BufWriter runs the list over a const record and appends
// the fields to a std::string; BufReader runs the same list over a
// record to fill and parses the fields back with bounds checking:
//
//   inline constexpr auto point_fields = [](auto& io, auto& p) {
//     io.f64(p.time);
//     io.i64(p.busy);
//     io.seq(p.ids, u32_each);   // a list for each element
//   };
//
// Integers travel at the width the call names, whatever the field's own
// type; the reader refuses a value that does not survive the cast back
// to the field's type, so everything it accepts writes back to the same
// bytes. Doubles travel as their IEEE-754 bit pattern, so a round trip
// is exact for every value including NaN payloads and infinities — a
// requirement for the service snapshot subsystem, whose recovery audit
// compares %.17g-formatted metrics bit for bit.
//
// The encoding is deliberately boring: no varints, no alignment, no
// endian detection at runtime. Values are assembled byte by byte, which
// compiles to single loads/stores on little-endian targets and is still
// correct on big-endian ones.

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace jigsaw {

/// Appends fields. The trailing `name` some calls take is for field
/// lists that other writers also render (SimMetrics' drain-reply JSON);
/// the binary encoding ignores it.
class BufWriter {
 public:
  explicit BufWriter(std::string& out) : out_(&out) {}

  template <typename T>
  void u32(const T& v) { put<std::uint32_t>(v); }
  template <typename T>
  void u64(const T& v, const char* /*name*/ = nullptr) {
    put<std::uint64_t>(v);
  }
  template <typename T>
  void i64(const T& v) { put<std::int64_t>(v); }
  void f64(double v, const char* /*name*/ = nullptr) {
    put<std::uint64_t>(std::bit_cast<std::uint64_t>(v));
  }
  void flag(bool v) { put<std::uint8_t>(v ? 1 : 0); }
  /// One byte; the reader refuses values past `last`.
  template <typename E>
  void enum8(E v, E /*last*/) { put<std::uint8_t>(static_cast<int>(v)); }
  void str(const std::string& s) {
    put<std::uint64_t>(s.size());
    out_->append(s);
  }

  /// Count, then `fn(io, element)` for each element in order.
  template <typename Seq, typename Fn>
  void seq(const Seq& s, Fn&& fn) {
    put<std::uint64_t>(s.size());
    for (const auto& x : s) fn(*this, x);
  }
  /// Presence flag, then the value when present.
  template <typename T, typename Fn>
  void opt(const std::optional<T>& o, Fn&& fn) {
    flag(o.has_value());
    if (o.has_value()) fn(*this, *o);
  }
  /// Count, then (i64 key, `fn(io, value)`) per entry in ascending key
  /// order, so identical contents give identical bytes whatever the
  /// hash map's history.
  template <typename Map, typename Fn>
  void map(const Map& m, Fn&& fn) {
    std::vector<typename Map::key_type> keys;
    keys.reserve(m.size());
    for (const auto& entry : m) keys.push_back(entry.first);
    std::sort(keys.begin(), keys.end());
    put<std::uint64_t>(keys.size());
    for (const auto& key : keys) {
      i64(key);
      fn(*this, m.at(key));
    }
  }

 private:
  template <typename Wire, typename T>
  void put(const T& v) {
    const auto bits =
        static_cast<std::make_unsigned_t<Wire>>(static_cast<Wire>(v));
    for (std::size_t k = 0; k < sizeof(Wire); ++k) {
      out_->push_back(static_cast<char>((bits >> (8 * k)) & 0xffu));
    }
  }

  std::string* out_;
};

/// Element lists for sequences and maps of plain values.
inline constexpr auto u32_each = [](auto& io, auto& v) { io.u32(v); };
inline constexpr auto u64_each = [](auto& io, auto& v) { io.u64(v); };
inline constexpr auto i64_each = [](auto& io, auto& v) { io.i64(v); };
inline constexpr auto f64_each = [](auto& io, auto& v) { io.f64(v); };

/// Bounds-checked reader over an immutable byte range. A read that
/// runs past the end, a count larger than the bytes left could hold, an
/// out-of-range enum or flag, a value that does not fit its field, or a
/// map key out of order puts the reader into the failed state; once
/// failed it stays failed and reads nothing more, so callers run a whole
/// field list and check ok() once at the end.
class BufReader {
 public:
  explicit BufReader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }

  template <typename T>
  void u32(T& v) { get<std::uint32_t>(v); }
  template <typename T>
  void u64(T& v, const char* /*name*/ = nullptr) {
    get<std::uint64_t>(v);
  }
  template <typename T>
  void i64(T& v) { get<std::int64_t>(v); }
  void f64(double& v, const char* /*name*/ = nullptr) {
    std::uint64_t bits = 0;
    get<std::uint64_t>(bits);
    v = std::bit_cast<double>(bits);
  }
  void flag(bool& v) {
    std::uint8_t byte = 0;
    get<std::uint8_t>(byte);
    if (byte > 1) ok_ = false;
    v = byte == 1;
  }
  template <typename E>
  void enum8(E& v, E last) {
    std::uint8_t byte = 0;
    get<std::uint8_t>(byte);
    if (byte > static_cast<int>(last)) ok_ = false;
    if (ok_) v = static_cast<E>(byte);
  }
  void str(std::string& s) {
    const std::size_t n = count(1);
    if (!ok_) return;
    s.assign(data_.substr(pos_, n));
    pos_ += n;
  }

  template <typename Seq, typename Fn>
  void seq(Seq& s, Fn&& fn) {
    const std::size_t n = count(min_wire_bytes<typename Seq::value_type>(fn));
    s.clear();
    if constexpr (requires { s.reserve(n); }) s.reserve(n);
    for (std::size_t k = 0; k < n && ok_; ++k) fn(*this, s.emplace_back());
  }
  template <typename T, typename Fn>
  void opt(std::optional<T>& o, Fn&& fn) {
    bool present = false;
    flag(present);
    o.reset();
    if (ok_ && present) fn(*this, o.emplace());
  }
  template <typename Map, typename Fn>
  void map(Map& m, Fn&& fn) {
    const std::size_t n =
        count(8 + min_wire_bytes<typename Map::mapped_type>(fn));
    m.clear();
    typename Map::key_type previous{};
    for (std::size_t k = 0; k < n && ok_; ++k) {
      typename Map::key_type key{};
      i64(key);
      if (k > 0 && !(previous < key)) ok_ = false;
      if (!ok_) return;
      fn(*this, m[key]);
      previous = key;
    }
  }

 private:
  template <typename Wire, typename T>
  void get(T& v) {
    if (!ok_ || remaining() < sizeof(Wire)) {
      ok_ = false;
      return;
    }
    std::make_unsigned_t<Wire> bits = 0;
    for (std::size_t k = 0; k < sizeof(Wire); ++k) {
      bits |= static_cast<std::make_unsigned_t<Wire>>(
                  static_cast<std::uint8_t>(data_[pos_ + k]))
              << (8 * k);
    }
    pos_ += sizeof(Wire);
    const auto wire = static_cast<Wire>(bits);
    const auto value = static_cast<T>(wire);
    if (static_cast<Wire>(value) != wire) {
      ok_ = false;  // does not fit the field's type
      return;
    }
    v = value;
  }

  /// Wire bytes of the smallest `T` under the element list `fn`: a
  /// default element, whose sequences and strings are empty.
  template <typename T, typename Fn>
  static std::size_t min_wire_bytes(Fn& fn) {
    std::string bytes;
    BufWriter w(bytes);
    const T smallest{};
    fn(w, smallest);
    return std::max<std::size_t>(bytes.size(), 1);
  }

  /// A count prefix, refused when the bytes left cannot hold that many
  /// elements of at least `min_bytes` each — the one bound on every
  /// sequence, map and string, so a damaged count can neither reserve
  /// nor loop past the data.
  std::size_t count(std::size_t min_bytes) {
    std::uint64_t n = 0;
    get<std::uint64_t>(n);
    if (ok_ && n > remaining() / min_bytes) ok_ = false;
    return ok_ ? static_cast<std::size_t>(n) : 0;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace jigsaw
