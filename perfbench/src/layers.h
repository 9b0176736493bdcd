// The traced per-layer replay: each layer's public entry points called
// in-process with the workloads' own request shapes, one span per call.
#pragma once

#include "harness.h"
#include "live.h"
#include "reference.h"
#include "serve/session.h"

namespace perfbench {

/// Replays the classify request, the bulk frame and one LOAD round
/// through the layers, recording spans into `tracer`, and returns the
/// per-layer metrics derived from them. `session` must hold `heavy`
/// under that name. Mismatching results are counted in `tally`.
Metrics replay_layers(const Reference& ref, ambit::serve::Session& session,
                      Tracer& tracer, Tally& tally);

}  // namespace perfbench
