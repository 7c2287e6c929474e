//===-- tests/RuntimeTest.cpp - Task scheduler, GPU sim, buffers ---------------===//

#include "codegen/Executable.h"
#include "lang/Func.h"
#include "lang/ImageParam.h"
#include "lang/Param.h"
#include "runtime/Buffer.h"
#include "runtime/GpuSim.h"
#include "runtime/Runtime.h"
#include "runtime/TaskScheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

using namespace halide;

// Chunk bodies: every parallel loop reaches the scheduler through
// parallelForChunks with a TaskChunkFn that runs its whole chunk
// [Begin, End). MaxTasks 0 takes the pool default.

TEST(TaskSchedulerTest, CoversAllIterations) {
  std::vector<std::atomic<int>> Hits(100);
  for (auto &H : Hits)
    H = 0;
  struct Ctx {
    std::vector<std::atomic<int>> *Hits;
  } C{&Hits};
  parallelForChunks(0, 100, 0,
                    [](int64_t Begin, int64_t End, int, void *P) {
                      auto *Ctx_ = static_cast<Ctx *>(P);
                      for (int64_t I = Begin; I < End; ++I)
                        (*Ctx_->Hits)[size_t(I)].fetch_add(1);
                    },
                    &C);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Hits[size_t(I)].load(), 1) << "iteration " << I;
}

TEST(TaskSchedulerTest, NonZeroMin) {
  std::atomic<int64_t> Sum{0};
  struct Ctx {
    std::atomic<int64_t> *Sum;
  } C{&Sum};
  parallelForChunks(10, 5, 0,
                    [](int64_t Begin, int64_t End, int, void *P) {
                      for (int64_t I = Begin; I < End; ++I)
                        static_cast<Ctx *>(P)->Sum->fetch_add(I);
                    },
                    &C);
  EXPECT_EQ(Sum.load(), 10 + 11 + 12 + 13 + 14);
}

TEST(TaskSchedulerTest, NestedParallelism) {
  std::atomic<int> Count{0};
  struct Ctx {
    std::atomic<int> *Count;
  } C{&Count};
  parallelForChunks(
      0, 4, 0,
      [](int64_t Begin, int64_t End, int, void *P) {
        for (int64_t I = Begin; I < End; ++I)
          parallelForChunks(0, 8, 0,
                            [](int64_t B, int64_t E, int, void *Q) {
                              static_cast<Ctx *>(Q)->Count->fetch_add(
                                  int(E - B));
                            },
                            P);
      },
      &C);
  EXPECT_EQ(Count.load(), 32);
}

TEST(TaskSchedulerTest, NestedLoopsRunOffTheSubmittingThread) {
  // The work-stealing property the single-queue pool lacked: a nested
  // parallel loop's iterations are real tasks other threads execute, not
  // inlined serially on the submitting worker. A barrier holds all four
  // outer chunks concurrently occupied — which already requires the
  // workers to have stolen the outer chunks from the submitter's deque —
  // and then each runs a nested loop; the barrier releasing at all
  // proves 4-way outer concurrency, and inner work must land on more
  // than one thread.
  if (taskSchedulerThreads() < 4)
    GTEST_SKIP() << "needs at least 4 scheduler threads";
  struct Ctx {
    std::mutex M;
    std::condition_variable CV;
    int Arrived = 0;
    std::set<std::thread::id> Ids;
  } C;
  parallelForChunks(
      0, 4, 4,
      [](int64_t, int64_t, int, void *P) {
        auto *Ctx_ = static_cast<Ctx *>(P);
        {
          std::unique_lock<std::mutex> Lock(Ctx_->M);
          if (++Ctx_->Arrived >= 4)
            Ctx_->CV.notify_all();
          else
            while (Ctx_->Arrived < 4)
              Ctx_->CV.wait(Lock);
        }
        parallelForChunks(0, 64, 0,
                          [](int64_t, int64_t, int, void *Q) {
                            auto *Inner = static_cast<Ctx *>(Q);
                            std::lock_guard<std::mutex> Lock(Inner->M);
                            Inner->Ids.insert(std::this_thread::get_id());
                          },
                          Ctx_);
      },
      &C);
  EXPECT_GT(C.Ids.size(), 1u);
}

TEST(TaskSchedulerTest, ZeroAndNegativeExtent) {
  auto Fail = [](int64_t, int64_t, int, void *) { FAIL(); };
  EXPECT_EQ(parallelForChunks(0, 0, 0, Fail, nullptr), 0);
  EXPECT_EQ(parallelForChunks(0, -5, 0, Fail, nullptr), 0);
}

TEST(TaskSchedulerTest, ChunkPartitionIsDeterministicAndComplete) {
  struct Ctx {
    std::atomic<int64_t> Iters{0};
    std::atomic<int> Chunks{0};
  } C;
  int N = parallelForChunks(
      5, 1000, 7,
      [](int64_t Begin, int64_t End, int Chunk, void *P) {
        auto *Ctx_ = static_cast<Ctx *>(P);
        EXPECT_GE(Chunk, 0);
        EXPECT_LT(Chunk, 7);
        EXPECT_LT(Begin, End);
        Ctx_->Iters.fetch_add(End - Begin);
        Ctx_->Chunks.fetch_add(1);
      },
      &C);
  EXPECT_EQ(N, 7);
  EXPECT_EQ(C.Iters.load(), 1000);
  EXPECT_EQ(C.Chunks.load(), 7);
  EXPECT_EQ(parallelForChunks(
                0, 0, 4, [](int64_t, int64_t, int, void *) { FAIL(); },
                nullptr),
            0);
}

TEST(TaskSchedulerTest, ChunkBudgetFollowsTheThreadRequest) {
  // One rule for both engines: 1 thread is one inline chunk, N threads
  // allow 4 N chunks, 0 takes the pool default of 4 per pool thread —
  // which is what MaxTasks 0 cuts.
  EXPECT_EQ(taskChunkBudget(1), 1);
  EXPECT_EQ(taskChunkBudget(3), 12);
  EXPECT_EQ(taskChunkBudget(0), 4 * taskSchedulerThreads());
  auto Nop = [](int64_t, int64_t, int, void *) {};
  EXPECT_EQ(parallelForChunks(0, 1000, 0, Nop, nullptr),
            taskChunkBudget(0));
  EXPECT_EQ(parallelForChunks(0, 1000, taskChunkBudget(1), Nop, nullptr), 1);
}

TEST(TaskSchedulerTest, ResizeTakesEffectAndRestoresDefault) {
  int Default = taskSchedulerThreads();
  EXPECT_GE(Default, 1);
  setTaskSchedulerThreads(3);
  EXPECT_EQ(taskSchedulerThreads(), 3);
  // Loops still cover every iteration at the new size.
  std::atomic<int> Count{0};
  parallelForChunks(0, 50, 0,
                    [](int64_t Begin, int64_t End, int, void *P) {
                      static_cast<std::atomic<int> *>(P)->fetch_add(
                          int(End - Begin));
                    },
                    &Count);
  EXPECT_EQ(Count.load(), 50);
  setTaskSchedulerThreads(0);
  EXPECT_EQ(taskSchedulerThreads(), Default);
}

TEST(TaskSchedulerTest, ResizeIsLockedAgainstInFlightLoops) {
  // The ThreadPool lifecycle bug this runtime replaced: resizing while
  // loops are in flight tore down workers under a running job. The
  // scheduler must instead drain in-flight loops, rebuild, and release
  // the queued loops — no lost iterations, no deadlock, no crash.
  std::atomic<bool> Done{false};
  std::atomic<int64_t> Total{0};
  std::vector<std::thread> Submitters;
  for (int S = 0; S < 3; ++S)
    Submitters.emplace_back([&] {
      while (!Done.load()) {
        parallelForChunks(0, 64, 0,
                          [](int64_t Begin, int64_t End, int, void *P) {
                            static_cast<std::atomic<int64_t> *>(P)->fetch_add(
                                End - Begin);
                          },
                          &Total);
      }
    });
  for (int N : {2, 4, 1, 3, 0})
    setTaskSchedulerThreads(N);
  Done = true;
  for (std::thread &T : Submitters)
    T.join();
  EXPECT_EQ(Total.load() % 64, 0);
  EXPECT_GT(Total.load(), 0);
}

TEST(TaskSchedulerTest, InTaskWorkerReflectsContext) {
  EXPECT_FALSE(inTaskWorker());
  struct Ctx {
    std::atomic<int> InTask{0};
  } C;
  parallelForChunks(0, 8, 0,
                    [](int64_t Begin, int64_t End, int, void *P) {
                      if (inTaskWorker())
                        static_cast<Ctx *>(P)->InTask.fetch_add(
                            int(End - Begin));
                    },
                    &C);
  EXPECT_EQ(C.InTask.load(), 8);
  EXPECT_FALSE(inTaskWorker());
}

TEST(GpuSimTest, LaunchStats) {
  gpuSim().resetStats();
  std::vector<std::atomic<int>> Hits(12);
  for (auto &H : Hits)
    H = 0;
  struct Ctx {
    std::vector<std::atomic<int>> *Hits;
  } C{&Hits};
  gpuSim().launch(12, /*MaxTasks=*/0,
                  [](int64_t Begin, int64_t End, int, void *P) {
                    auto *Ctx_ = static_cast<Ctx *>(P);
                    for (int64_t B = Begin; B < End; ++B)
                      (*Ctx_->Hits)[size_t(B)].fetch_add(1);
                  },
                  &C);
  for (int B = 0; B < 12; ++B)
    EXPECT_EQ(Hits[size_t(B)].load(), 1) << "block " << B;
  EXPECT_EQ(gpuSim().stats().KernelLaunches, 1);
  EXPECT_EQ(gpuSim().stats().BlocksExecuted, 12);
}

TEST(BufferTest, LayoutAndAccess) {
  Buffer<uint16_t> B(5, 3);
  EXPECT_EQ(B.width(), 5);
  EXPECT_EQ(B.height(), 3);
  EXPECT_EQ(B.raw().Dim[0].Stride, 1); // innermost dense
  EXPECT_EQ(B.raw().Dim[1].Stride, 5);
  B(2, 1) = 42;
  EXPECT_EQ(B.data()[1 * 5 + 2], 42);
  B.fill([](int X, int Y) { return X * 10 + Y; });
  EXPECT_EQ(B(4, 2), 42);
}

TEST(BufferTest, ThreeDimensional) {
  Buffer<float> B(4, 3, 2);
  EXPECT_EQ(B.raw().Dim[2].Stride, 12);
  B(1, 2, 1) = 7.0f;
  EXPECT_EQ(B.data()[1 * 12 + 2 * 4 + 1], 7.0f);
}

TEST(BufferTest, MinOffsets) {
  Buffer<int32_t> B(4, 4);
  B.setMin(100, 200);
  B(101, 202) = 9;
  EXPECT_EQ(B(101, 202), 9);
  EXPECT_EQ(B.minCoord(0), 100);
}

TEST(BufferTest, RawKeepsStorageAlive) {
  RawBuffer Raw;
  {
    Buffer<uint8_t> B(8, 8);
    B.fillConstant(77);
    Raw = B.raw();
  }
  // The typed buffer is gone; the descriptor's Owner keeps data valid.
  EXPECT_EQ(static_cast<uint8_t *>(Raw.Host)[0], 77);
}

TEST(ParamBindingsTest, PackedLayout) {
  // A run's arguments are packed once, in the layout the signature
  // defines: one pointer per buffer (output first); then for each buffer
  // MaxBufferDims x (min, extent, stride), dimensions past its rank as
  // (0, 1, 0); then the integer scalars; the float scalars on their own.
  ImageParam In(Float(32), 2, "pl_in");
  Param<int32_t> K("pl_k");
  Param<float> Gain("pl_gain");
  Var x("x"), y("y");
  Func F("pl_out");
  F(x, y) = In(x, y) * Gain + cast<float>(K);
  LoweredPipeline LP = lower(F.function());
  ASSERT_EQ(LP.Buffers.size(), 2u);
  ASSERT_EQ(LP.Scalars.size(), 2u);

  Buffer<float> Input(6, 4), Out(5, 3);
  Input.setMin(2, 3);
  ParamBindings P;
  P.bind(In.name(), Input);
  P.bind(F.name(), Out);
  P.bindInt(K.name(), 42);
  P.bindFloat(Gain.name(), 0.5);
  BoundArgs Args = bindArguments(LP, P);

  ASSERT_EQ(Args.Bufs.size(), 2u);
  EXPECT_EQ(Args.Bufs[0], Out.raw().Host);
  EXPECT_EQ(Args.Bufs[1], Input.raw().Host);
  const int In0 = LoweredPipeline::metadataSlot(1, 0);
  const int In1 = LoweredPipeline::metadataSlot(1, 1);
  const int In2 = LoweredPipeline::metadataSlot(1, 2);
  EXPECT_EQ(In0, 3 * MaxBufferDims);
  EXPECT_EQ(std::vector<int64_t>(&Args.IntArgs[In0], &Args.IntArgs[In0] + 9),
            (std::vector<int64_t>{2, 6, 1, 3, 4, 6, 0, 1, 0}));
  EXPECT_EQ(In1, In0 + 3);
  EXPECT_EQ(In2, In0 + 6);
  EXPECT_EQ(Args.IntArgs[size_t(LoweredPipeline::metadataSlot(0, 1) + 1)],
            3); // the output's extent in y
  // The integer scalar follows every buffer's metadata.
  ASSERT_EQ(Args.IntArgs.size(), size_t(6 * MaxBufferDims + 1));
  EXPECT_EQ(Args.IntArgs.back(), 42);
  EXPECT_EQ(Args.FloatArgs, std::vector<double>{0.5});
  // Sizes in elements, for bounds-checking executors.
  EXPECT_EQ(Args.BufElems, (std::vector<int64_t>{15, 24}));

  // The engines find each parameter lowered code reads by name there.
  std::map<std::string, ArgSlot> Slots = LP.argumentSlots();
  EXPECT_EQ(Slots[In.name() + ".extent.1"].Index, In1 + 1);
  EXPECT_FALSE(Slots[In.name() + ".extent.1"].IsFloat);
  EXPECT_EQ(Slots[F.name() + ".stride.3"].Index,
            LoweredPipeline::metadataSlot(0, 3) + 2);
  EXPECT_EQ(Slots[K.name()].Index, 6 * MaxBufferDims);
  EXPECT_FALSE(Slots[K.name()].IsFloat);
  EXPECT_EQ(Slots[Gain.name()].Index, 0);
  EXPECT_TRUE(Slots[Gain.name()].IsFloat);
}

TEST(RuntimeVTableTest, MallocAlignment) {
  void *P = halideMalloc(1000);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % 64, 0u);
  halideFree(P);
  const RuntimeVTable *VT = runtimeVTable();
  void *Q = VT->Malloc(16);
  ASSERT_NE(Q, nullptr);
  VT->Free(Q);
}
