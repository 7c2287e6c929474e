//===-- perfbench/src/Programs.cpp - Benchmarked pipelines ----------------===//

#include "Programs.h"

#include "support/DiffTest.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sys/wait.h>
#include <unistd.h>

using namespace halide;

namespace pb {

const char *engineName(Engine E) { return E == Engine::Jit ? "jit" : "vm"; }

Target engineTarget(Engine E) {
  return E == Engine::Jit ? Target::jit() : Target::vm();
}

std::vector<App> makeApps() {
  std::vector<App> Apps = paperApps();
  Apps.push_back(makeHistogramEqualizeApp());
  return Apps;
}

App &findApp(std::vector<App> &Apps, const std::string &Name) {
  for (App &A : Apps)
    if (A.Name == Name)
      return A;
  std::fprintf(stderr, "perfbench: no app named %s\n", Name.c_str());
  std::abort();
}

void applySchedule(App &A, const std::string &Schedule) {
  if (Schedule == "tuned")
    A.ScheduleTuned();
  else
    A.ScheduleBreadthFirst();
}

void Program::makeBuffers() {
  Params = A->MakeInputs(W, H);
  std::shared_ptr<void> Keep;
  Out = makeAppOutput(*A, W, H, &Keep);
  Out.Owner = Keep;
  Params.bind(A->Output.name(), Out);
}

void Program::compile() {
  applySchedule(*A, Schedule);
  Exe = Pipeline(A->Output).compile(engineTarget(E));
}

int Program::run() const { return Exe->run(Params); }

uint64_t Program::outputHash() const {
  // Over the dense planar storage makeAppOutput allocates.
  const auto *Bytes = static_cast<const unsigned char *>(Out.Host);
  const size_t N = size_t(Out.numElements()) * size_t(Out.ElemType.bytes());
  uint64_t H = 1469598103934665603ull;
  for (size_t I = 0; I < N; ++I)
    H = (H ^ Bytes[I]) * 1099511628211ull;
  return H;
}

namespace {

constexpr double FloatTolerance = 1e-4;

/// Runs \p Exe at W x H into a fresh buffer shaped like \p A's output.
RawBuffer runAt(const App &A, const Executable &Exe, int W, int H) {
  ParamBindings Params = A.MakeInputs(W, H);
  std::shared_ptr<void> Keep;
  RawBuffer Out = makeAppOutput(A, W, H, &Keep);
  Out.Owner = Keep;
  Params.bind(A.Output.name(), Out);
  if (Exe.run(Params) != 0)
    Out.Host = nullptr;
  return Out;
}

double element(const RawBuffer &B, size_t I) {
  const Type &T = B.ElemType;
  if (T.isFloat())
    return T.Bits == 64 ? static_cast<const double *>(B.Host)[I]
                        : static_cast<const float *>(B.Host)[I];
  switch (T.Bits) {
  case 8:
    return T.isUInt() ? static_cast<const uint8_t *>(B.Host)[I]
                      : static_cast<const int8_t *>(B.Host)[I];
  case 16:
    return T.isUInt() ? static_cast<const uint16_t *>(B.Host)[I]
                      : static_cast<const int16_t *>(B.Host)[I];
  default:
    return T.isUInt() ? static_cast<const uint32_t *>(B.Host)[I]
                      : static_cast<const int32_t *>(B.Host)[I];
  }
}

/// Compares the interior of two dense planar W x H (x channels) buffers,
/// allowing integer elements to differ by \p IntTol.
bool interiorMatches(const RawBuffer &Want, const RawBuffer &Got, int Margin,
                     double IntTol, std::string *Why) {
  const int W = Want.Dim[0].Extent, H = Want.Dim[1].Extent;
  const int C = Want.Dimensions > 2 ? Want.Dim[2].Extent : 1;
  const double Tol = Want.ElemType.isFloat() ? FloatTolerance : IntTol;
  int64_t Checked = 0, Differing = 0;
  for (int Ch = 0; Ch < C; ++Ch)
    for (int Y = Margin; Y < H - Margin; ++Y)
      for (int X = Margin; X < W - Margin; ++X) {
        const size_t I = (size_t(Ch) * size_t(H) + size_t(Y)) * size_t(W) +
                         size_t(X);
        const double D = std::fabs(element(Want, I) - element(Got, I));
        ++Checked;
        Differing += D > 0;
        if (D > Tol) {
          *Why = "first mismatch at (" + std::to_string(X) + ", " +
                 std::to_string(Y) + ", " + std::to_string(Ch) + "): " +
                 std::to_string(element(Got, I)) + " vs reference " +
                 std::to_string(element(Want, I));
          return false;
        }
      }
  *Why = std::to_string(Checked) + " elements checked, " +
         std::to_string(Differing) + " differ within tolerance";
  return Checked > 0;
}

/// Checks \p Exe at W x H against \p A's hand-written reference.
bool checkAgainstReference(const App &A, const Executable &Exe, int W, int H,
                           double IntTol, std::string *Detail) {
  RawBuffer Got = runAt(A, Exe, W, H);
  std::shared_ptr<void> Keep;
  RawBuffer Ref = makeAppOutput(A, W, H, &Keep);
  A.Reference(W, H, Ref);
  std::string Why = "nonzero exit code";
  const bool Ok = Got.defined() &&
                  interiorMatches(Ref, Got, A.ReferenceMargin, IntTol, &Why);
  *Detail = "reference check at " + std::to_string(W) + "x" +
            std::to_string(H) + ", margin " +
            std::to_string(A.ReferenceMargin) + (Ok ? ": " : ": MISMATCH ") +
            Why;
  return Ok;
}

/// The reference check at a frame with an interior, run in a child
/// process: at 1088x1088 it needs several hundred MB, which must not show
/// in the workload's peak_rss_mb.
bool checkInteriorInChild(const App &A, const Executable &Exe,
                          std::string *Detail) {
  // The baseline rounds its float pyramid to uint16 differently from the
  // pipeline at a handful of pixels (4 of 4096 interior pixels, by one).
  constexpr double IntTol = 1;
  const int Side = 2 * A.ReferenceMargin + 64;
  int Fds[2];
  if (pipe(Fds) != 0) {
    *Detail = "pipe failed";
    return false;
  }
  std::fflush(nullptr);
  const pid_t Pid = fork();
  if (Pid == 0) {
    close(Fds[0]);
    std::string Msg;
    const bool Ok = checkAgainstReference(A, Exe, Side, Side, IntTol, &Msg);
    Msg = (Ok ? "1" : "0") + Msg;
    ssize_t Written = write(Fds[1], Msg.data(), Msg.size());
    _exit(Written == ssize_t(Msg.size()) ? 0 : 1);
  }
  close(Fds[1]);
  std::string Msg;
  char Buf[512];
  ssize_t N;
  while (Pid > 0 && (N = read(Fds[0], Buf, sizeof(Buf))) > 0)
    Msg.append(Buf, size_t(N));
  close(Fds[0]);
  int Status = 0;
  if (Pid < 0 || waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0 || Msg.empty()) {
    *Detail = "reference check at " + std::to_string(Side) + "x" +
              std::to_string(Side) + ": child process failed";
    return false;
  }
  *Detail = Msg.substr(1);
  return Msg[0] == '1';
}

bool hasInterior(const App &A, int W, int H) {
  return 2 * A.ReferenceMargin < W && 2 * A.ReferenceMargin < H;
}

} // namespace

bool verifyProgram(Program &P, std::string *Detail) {
  App &A = *P.A;
  if (P.run() != 0) {
    *Detail = "nonzero exit code";
    return false;
  }
  P.VerifiedHash = P.outputHash();
  if (A.Reference && hasInterior(A, P.W, P.H))
    return checkAgainstReference(A, *P.Exe, P.W, P.H, 0, Detail);
  if (A.Reference && P.E == Engine::Jit)
    return checkInteriorInChild(A, *P.Exe, Detail);
  applySchedule(A, "breadth_first");
  std::shared_ptr<const Executable> Oracle =
      Pipeline(A.Output).compile(Target::vm());
  RawBuffer Want = runAt(A, *Oracle, P.W, P.H);
  std::string Why = "nonzero exit code";
  const bool Ok =
      Want.defined() && interiorMatches(Want, P.Out, 0, 0, &Why);
  *Detail = "cross-engine check against breadth_first on the VM at " +
            std::to_string(P.W) + "x" + std::to_string(P.H) +
            (Ok ? ": " : ": MISMATCH ") + Why;
  return Ok;
}

} // namespace pb
