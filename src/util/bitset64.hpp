// Small-set operations on 64-bit masks.
//
// Every per-switch resource group in a three-level fat-tree built from
// radix-k switches has k/2 members (uplinks, leaves, spines in a group).
// The library supports radix up to 64, so a std::uint64_t mask covers any
// group; these helpers keep the allocator search branch-light.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace jigsaw {

using Mask = std::uint64_t;

/// Mask with the low n bits set. n in [0, 64].
constexpr Mask low_bits(int n) {
  return n >= 64 ? ~Mask{0} : ((Mask{1} << n) - 1);
}

constexpr int popcount(Mask m) { return std::popcount(m); }

/// Index of the lowest set bit; undefined for m == 0.
constexpr int lowest_bit(Mask m) { return std::countr_zero(m); }

constexpr bool has_bit(Mask m, int i) { return (m >> i) & 1; }

/// The lowest n set bits of m (n <= popcount(m)); used to pick a
/// deterministic subset, e.g. the L2 set S out of an intersection mask.
constexpr Mask lowest_n_bits(Mask m, int n) {
  Mask out = 0;
  for (int i = 0; i < n; ++i) {
    const Mask bit = m & (~m + 1);  // lowest set bit
    out |= bit;
    m ^= bit;
  }
  return out;
}

/// Visit each set bit index in ascending order.
template <typename Fn>
constexpr void for_each_bit(Mask m, Fn&& fn) {
  while (m != 0) {
    const int i = std::countr_zero(m);
    fn(i);
    m &= m - 1;
  }
}

/// True when a is a subset of b.
constexpr bool subset_of(Mask a, Mask b) { return (a & ~b) == 0; }

// -- batch kernels -----------------------------------------------------
// Word-at-a-time loops over parallel Mask rows (a row is one word per
// L2 switch or per leaf). The resource arrays ClusterState keeps are
// free/healthy pairs, so the kernels take two rows and combine them with
// AND — the same composition every free_* query performs one word at a
// time. They are plain loops: hand-written AVX2/AVX-512 versions measured
// no faster end to end. What does matter is that popcount is one
// instruction, so on x86-64 the library builds with -mpopcnt
// (src/CMakeLists.txt); without it std::popcount is a libgcc call.

/// AND-reduce of a[i] & b[i] over n words. Identity for n == 0.
inline Mask and_reduce_rows(const Mask* a, const Mask* b, std::size_t n) {
  Mask m = ~Mask{0};
  for (std::size_t i = 0; i < n; ++i) m &= a[i] & b[i];
  return m;
}

/// Sum of popcount(a[i] & b[i]) over n words.
inline int popcount_and_rows(const Mask* a, const Mask* b, std::size_t n) {
  int total = 0;
  for (std::size_t i = 0; i < n; ++i) total += popcount(a[i] & b[i]);
  return total;
}

/// out[i] = a[i] & b[i] for all n words; true when every intersection
/// keeps at least `need` bits. On a false return `out` still holds every
/// intersection word (callers discard it), which keeps the body
/// branch-free.
inline bool and_rows_viable(const Mask* a, const Mask* b, Mask* out,
                            std::size_t n, int need) {
  bool viable = true;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = a[i] & b[i];
    viable &= popcount(out[i]) >= need;
  }
  return viable;
}

}  // namespace jigsaw
