// Test helper: seal a manifest body the way Manifest::serialize() does
// — header, body, the `algo crc32c` line and a correct terminal
// `manifestsum` — so a hostile body reaches the parser's geometry and
// table checks instead of failing early on a missing self-checksum.
#pragma once

#include <string>

#include "integrity/checksum.h"

namespace shard {

inline std::string SealManifest(const std::string& body) {
  std::string text = "dialga-shard-v1\n" + body;
  if (text.back() != '\n') text += '\n';
  text += "algo crc32c\n";
  return text + "manifestsum " +
         std::to_string(integrity::Crc32c(text.data(), text.size())) + "\n";
}

}  // namespace shard
