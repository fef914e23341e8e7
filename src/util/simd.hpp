// Names the instruction set the mask kernels are built for, for host
// records in benchmark results. The kernels themselves are plain loops in
// util/bitset64.hpp; on x86-64 the library compiles with -mpopcnt
// (src/CMakeLists.txt), so every popcount is one POPCNT instruction.

#pragma once

namespace jigsaw::simd {

enum class Level : int { kScalar = 0, kPopcnt = 1 };

/// The level this build targets (fixed at compile time).
constexpr Level active_level() {
#ifdef __POPCNT__
  return Level::kPopcnt;
#else
  return Level::kScalar;
#endif
}

constexpr const char* level_name(Level level) {
  return level == Level::kPopcnt ? "popcnt" : "scalar";
}

}  // namespace jigsaw::simd
