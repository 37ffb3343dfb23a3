// Layer ceilings for the traced run: each probe times one layer's
// public function in isolation on the workloads' shapes (roofline,
// GF dot product, codec prefetch-distance sweep, DIALGA host face,
// pooled encode, CRC-32C, the aio datapath, and the service's
// degraded-read knee). They give the per-layer metrics their
// denominators; none of them feeds an end-to-end metric.
#pragma once

#include "harness.h"
#include "workloads.h"

namespace dbench {

void RunProbes(const RunConfig& cfg, Report& layers);

}  // namespace dbench
