#include "dialga/registry.h"

#include <algorithm>
#include <cctype>

#include "dialga/dialga.h"
#include "ec/isal.h"
#include "ec/isal_decompose.h"
#include "ec/lrc.h"
#include "ec/rs16.h"
#include "ec/xor_codec.h"

namespace dialga {
using namespace ec;

namespace {
std::string Canon(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  s.erase(std::remove(s.begin(), s.end(), '_'), s.end());
  s.erase(std::remove(s.begin(), s.end(), '-'), s.end());
  return s;
}
}  // namespace

std::unique_ptr<Codec> MakeCodec(const CodecSpec& spec) {
  const std::string n = Canon(spec.name);
  if (n == "isal") {
    return std::make_unique<IsalCodec>(spec.k, spec.m, spec.simd);
  }
  if (n == "isald") {
    return std::make_unique<IsalDecomposeCodec>(spec.k, spec.m, 16,
                                                spec.simd);
  }
  if (n == "zerasure") return MakeZerasure(spec.k, spec.m);
  if (n == "cerasure") return MakeCerasure(spec.k, spec.m);
  if (n == "dialga") {
    return std::make_unique<DialgaCodec>(spec.k, spec.m, spec.simd);
  }
  if (n == "rs16") {
    return std::make_unique<Rs16Codec>(spec.k, spec.m, spec.simd);
  }
  if (n == "lrc") {
    return std::make_unique<LrcCodec>(spec.k, spec.m, spec.l, spec.simd);
  }
  return nullptr;
}

std::vector<std::string> KnownCodecs() {
  return {"ISA-L", "ISA-L-D", "Zerasure", "Cerasure",
          "DIALGA", "RS16",   "LRC"};
}

}  // namespace dialga
