#pragma once

#include "experiment/site.h"

namespace adattl::experiment {

/// The domain-sharded run's former type name. Site runs every mode
/// (site.h); the alias remains only because perfbench/ still names it.
using ShardedSite = Site;

}  // namespace adattl::experiment
