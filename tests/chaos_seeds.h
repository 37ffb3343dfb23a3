// Seed list of the seeded suites (chaos_test, cluster_chaos_test,
// corruption_chaos_test, qos_test). Each test loops the fixed seeds
// 1..8; the CHAOS_SEED environment variable narrows a run to one seed
// so CI fans the seeds out as a matrix without rebuilding.
//
// The value must be a whole unsigned 64-bit decimal: no sign, no
// whitespace, no trailing characters. Anything else fails the test
// that asked for seeds, naming the value, instead of silently running
// some other seed.
#pragma once

#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <system_error>
#include <vector>

namespace chaos {

/// Full-string parse of a seed; nullopt for an empty, malformed or
/// out-of-range value.
inline std::optional<std::uint64_t> ParseSeed(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t seed = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, seed);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return seed;
}

/// Seeds 1..8, or the one CHAOS_SEED names. A malformed CHAOS_SEED
/// adds a failure to the calling test and yields no seeds.
inline std::vector<std::uint64_t> Seeds() {
  const char* env = std::getenv("CHAOS_SEED");
  if (env == nullptr) return {1, 2, 3, 4, 5, 6, 7, 8};
  if (const auto seed = ParseSeed(env)) return {*seed};
  ADD_FAILURE() << "CHAOS_SEED='" << env
                << "' is not an unsigned 64-bit decimal integer";
  return {};
}

}  // namespace chaos
