//===-- bench/dump_programs.cpp - Every program's IR and C, for diffing ---===//
//
// Lowers every registered app x schedule (local_laplacian at 8 levels) and
// every schedule of the differential suite's sample (support/DiffTest.h),
// and writes into the output directory, for each program, its lowered IR
// as loweredText() prints it (<program>.ir) and its emitted C
// (<program>.c), plus one row per program in programs.tsv: IR characters,
// C bytes, VM instructions, and the C's gathers, clamped loads and strided
// loads (countVectorLoads in codegen/CodeGenC.h). Lowering is
// deterministic, so the dumps of two builds diff directly:
//
//   old/build/dump_programs old.d && new/build/dump_programs new.d &&
//   diff -r old.d new.d
//
// Registered programs are named <app>.<schedule>, sampled ones
// sample.<app>.<index>.
//
// Usage: dump_programs <output-directory>
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "autotune/ScheduleSpace.h"
#include "codegen/CodeGenC.h"
#include "ir/IRPrinter.h"
#include "support/DiffTest.h"
#include "vm/VmCompiler.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace halide;

namespace {

void writeFile(const std::filesystem::path &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  if (!Out) {
    std::fprintf(stderr, "dump_programs: cannot write %s\n", Path.c_str());
    std::exit(1);
  }
}

/// Lowers \p A under its current schedule and dumps it as \p Program.
void dump(const std::filesystem::path &Dir, std::ofstream &Table,
          const std::string &Program, App &A) {
  const LoweredPipeline LP = Pipeline(A.Output).lowerPipeline();
  const std::string Ir = stmtToString(LP.Body);
  const std::string C = codegenC(LP, "hl_pipeline");
  writeFile(Dir / (Program + ".ir"), Ir);
  writeFile(Dir / (Program + ".c"), C);
  const VectorLoadCounts Loads = countVectorLoads(C);
  Table << Program << '\t' << Ir.size() << '\t' << C.size() << '\t'
        << compileToBytecode(LP).Code.size() << '\t' << Loads.Gathers << '\t'
        << Loads.Clamped << '\t' << Loads.Strided << '\n';
}

} // namespace

int main(int argc, char **argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: dump_programs <output-directory>\n");
    return 2;
  }
  const std::filesystem::path Dir = argv[1];
  std::error_code Err;
  std::filesystem::create_directories(Dir, Err);
  std::ofstream Table(Dir / "programs.tsv");
  if (Err || !Table) {
    std::fprintf(stderr, "dump_programs: cannot write into %s\n", argv[1]);
    return 1;
  }
  Table << "program\tir_chars\tc_bytes\tvm_instrs\tgathers\tclamped_loads"
           "\tstrided_loads\n";

  std::vector<App> Registered = paperApps();
  Registered.push_back(makeHistogramEqualizeApp());
  for (App &A : Registered)
    for (const auto &[Schedule, Apply] :
         {std::pair{"breadth_first", A.ScheduleBreadthFirst},
          std::pair{"tuned", A.ScheduleTuned},
          std::pair{"gpu", A.ScheduleGpu}}) {
      if (!Apply)
        continue;
      Apply();
      dump(Dir, Table, A.Name + "." + Schedule, A);
    }

  std::vector<App> Sampled = paperApps(DiffLocalLaplacianLevels);
  Sampled.push_back(makeHistogramEqualizeApp());
  for (App &A : Sampled) {
    ScheduleSpace Space(A.Output.function());
    int Index = 0;
    for (const Genome &G :
         Space.deterministicSample(DiffScheduleCount, DiffSampleSeed)) {
      Space.apply(G);
      char Suffix[16];
      std::snprintf(Suffix, sizeof(Suffix), ".%02d", Index++);
      dump(Dir, Table, "sample." + A.Name + Suffix, A);
    }
  }
  return Table.flush() ? 0 : 1;
}
