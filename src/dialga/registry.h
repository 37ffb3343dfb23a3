// Name-based codec construction, shared by the CLI tools and benches.
// Returns nullptr for unknown names and for configurations a system has
// no answer to (Zerasure beyond k = 32 — its search does not converge).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "ec/codec.h"

namespace dialga {
using ec::Codec;
using ec::SimdWidth;

struct CodecSpec {
  std::string name;        // "ISA-L", "ISA-L-D", "Zerasure", "Cerasure",
                           // "DIALGA", "RS16", "LRC"
  std::size_t k = 12;
  std::size_t m = 4;
  std::size_t l = 2;       // LRC only
  SimdWidth simd = SimdWidth::kAvx512;
};

/// Case-insensitive lookup; also accepts lowercase aliases ("isal",
/// "isal-d", "dialga", ...).
std::unique_ptr<Codec> MakeCodec(const CodecSpec& spec);

/// Names MakeCodec understands, canonical capitalization.
std::vector<std::string> KnownCodecs();

}  // namespace dialga
