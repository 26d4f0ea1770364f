#pragma once

#include <optional>
#include <string>

namespace xlp::traffic {

/// Synthetic traffic patterns. UR, TP (transpose) and BR (bit-reverse) are
/// the patterns the paper evaluates in Section 5.4; the remainder are the
/// standard suite from Dally & Towles used by the extended benches.
enum class Pattern {
  kUniformRandom,
  kTranspose,
  kBitReverse,
  kBitComplement,
  kShuffle,
  kTornado,
  kNeighbor,
  kHotspot,
};

[[nodiscard]] std::string to_string(Pattern p);
[[nodiscard]] std::optional<Pattern> pattern_from_string(
    const std::string& name);

/// Why pattern `p` has no demand on an n x n network, or nullptr when it
/// has: the bit permutations need a power-of-two node count, and tornado's
/// shift is zero below n = 3, so every node would send to itself. The
/// demand generators and request validation share this one rule.
[[nodiscard]] const char* pattern_unfit(Pattern p, int n);

/// Destination of source `src` under permutation pattern `p` (every pattern
/// but uniform-random and hotspot, whose demand is a distribution) on an
/// n x n network (node ids are y*n + x), or nullopt when the pattern maps
/// `src` onto itself (such sources inject no traffic, the usual
/// convention). Throws PreconditionError for uniform-random or hotspot,
/// and for a bit permutation (bit-reverse, bit-complement, shuffle) when
/// the node count n*n is not a power of two.
[[nodiscard]] std::optional<int> pattern_destination(Pattern p, int src,
                                                     int n);

}  // namespace xlp::traffic
