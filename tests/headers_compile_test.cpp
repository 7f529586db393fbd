// Build-surface lock: every public header must be self-contained (compile
// from a single include). CMakeLists.txt generates one translation unit per
// header under src/, each including only that header, and compiles them all
// into this test binary; a header that silently depends on another being
// included first breaks the build.
#include <gtest/gtest.h>

#include "group/strategies.hpp"
#include "sim/engine.hpp"

namespace gcr {
namespace {

TEST(Headers, AllPublicHeadersAreSelfContained) {
  // The assertion is the successful compilation of the generated TUs;
  // instantiate a couple of cheap types to keep the linker honest about
  // inline symbols.
  sim::Engine engine;
  EXPECT_EQ(engine.now(), 0);
  EXPECT_EQ(group::make_norm(4).num_groups(), 1);
}

}  // namespace
}  // namespace gcr
