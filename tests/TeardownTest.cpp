//===-- tests/TeardownTest.cpp - Static destruction order -------------------===//
//
// A program that touches the compile cache before it creates any Func
// constructs the cache before the Function registry, so at exit the cache
// is destroyed after the registry, and the Functions held by its cached
// pipelines unregister during that destruction. This test is that
// program, alone in its binary so nothing else constructs the registry
// first; under AddressSanitizer it fails at exit unless the registry
// outlives every static.
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
