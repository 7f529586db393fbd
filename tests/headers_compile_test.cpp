// Build-surface lock: every public header must be self-contained (compile
// from a single include, in any order). This TU includes all of them once;
// if a header silently depends on another being included first, this file
// breaks at compile time.
#include "apps/app.hpp"
#include "apps/cg.hpp"
#include "apps/hpl.hpp"
#include "apps/patterns.hpp"
#include "apps/simple.hpp"
#include "apps/sp.hpp"
#include "ckpt/checkpointer.hpp"
#include "ckpt/image.hpp"
#include "core/group_protocol.hpp"
#include "core/interval.hpp"
#include "core/metrics.hpp"
#include "core/msglog.hpp"
#include "core/recovery.hpp"
#include "core/scheduler.hpp"
#include "core/vcl_protocol.hpp"
#include "exp/campaign.hpp"
#include "exp/experiment.hpp"
#include "exp/scenario.hpp"
#include "group/dynamic.hpp"
#include "group/formation.hpp"
#include "group/group.hpp"
#include "group/groupfile.hpp"
#include "group/strategies.hpp"
#include "mpi/hooks.hpp"
#include "mpi/message.hpp"
#include "mpi/rank.hpp"
#include "mpi/runtime.hpp"
#include "sim/awaitables.hpp"
#include "sim/channel.hpp"
#include "sim/cluster.hpp"
#include "sim/co.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/frame_pool.hpp"
#include "sim/jitter.hpp"
#include "sim/network.hpp"
#include "sim/smallfn.hpp"
#include "sim/storage.hpp"
#include "sim/time.hpp"
#include "trace/analysis.hpp"
#include "trace/io.hpp"
#include "trace/record.hpp"
#include "trace/timeline.hpp"
#include "trace/tracer.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

#include <gtest/gtest.h>

namespace gcr {
namespace {

TEST(Headers, AllPublicHeadersAreSelfContained) {
  // The assertion is the successful compilation of this TU; instantiate a
  // couple of cheap types to keep the linker honest about inline symbols.
  sim::Engine engine;
  EXPECT_EQ(engine.now(), 0);
  EXPECT_EQ(group::make_norm(4).num_groups(), 1);
}

}  // namespace
}  // namespace gcr
