//===-- tests/TeardownTest.cpp - Static destruction order -------------------===//
//
// A program that touches the compile cache before it creates any Func
// constructs the cache first, so at exit the cache is destroyed after
// every static constructed later, and the Functions held by its cached
// pipelines are freed during that destruction. This test is that
// program, alone in its binary so nothing else constructs a static
// first; under AddressSanitizer it fails at exit if freeing a stage
// touches a static already destroyed.
//
//===----------------------------------------------------------------------===//

#include "lang/Pipeline.h"

#include <gtest/gtest.h>

using namespace halide;

TEST(TeardownTest, CompileCacheMayOutliveFirstFunc) {
  const int64_t Before = Pipeline::compileCounters().BackendCompiles;
  Var x("x");
  Func F("teardown_f");
  F(x) = x * 2;
  Pipeline(F).compile(Target::vm());
  EXPECT_EQ(Pipeline::compileCounters().BackendCompiles, Before + 1);
}
