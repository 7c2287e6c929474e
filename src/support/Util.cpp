//===-- support/Util.cpp --------------------------------------------------==//

#include "support/Util.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

using namespace halide;

ErrorReport::ErrorReport(const char *File, int Line, const char *CondString,
                         bool IsUser) {
  Msg << (IsUser ? "Error: " : "Internal error at ") << File << ":" << Line
      << " ";
  if (CondString)
    Msg << "condition failed: " << CondString << " ";
}

ErrorReport::~ErrorReport() {
  Msg << "\n";
  std::fputs(Msg.str().c_str(), stderr);
  std::fflush(stderr);
  std::abort();
}

namespace {
/// Per-prefix counters for uniqueName, lock-guarded (concurrent serving
/// clients construct Funcs/Params/Vars from their own threads). A
/// function-local static avoids a global static constructor.
std::mutex &nameCountersMutex() {
  static std::mutex M;
  return M;
}

std::map<std::string, int> &nameCounters() {
  static std::map<std::string, int> Counters;
  return Counters;
}
} // namespace

std::string halide::uniqueName(const std::string &Prefix) {
  std::lock_guard<std::mutex> Lock(nameCountersMutex());
  int Count = nameCounters()[Prefix]++;
  return Prefix + std::to_string(Count);
}

void halide::resetUniqueNameCounters() {
  std::lock_guard<std::mutex> Lock(nameCountersMutex());
  nameCounters().clear();
}

namespace {
/// The innermost UniqueNameScope of the calling thread.
thread_local UniqueNameScope *CurrentNameScope = nullptr;
} // namespace

UniqueNameScope::UniqueNameScope() : Enclosing(CurrentNameScope) {
  CurrentNameScope = this;
}

UniqueNameScope::~UniqueNameScope() { CurrentNameScope = Enclosing; }

std::string halide::scopedUniqueName(const std::string &Prefix) {
  if (!CurrentNameScope)
    return uniqueName(Prefix);
  int Count = CurrentNameScope->Counters[Prefix]++;
  return Prefix + std::to_string(Count);
}

bool halide::startsWith(const std::string &Str, const std::string &Prefix) {
  return Str.size() >= Prefix.size() &&
         Str.compare(0, Prefix.size(), Prefix) == 0;
}

bool halide::endsWith(const std::string &Str, const std::string &Suffix) {
  return Str.size() >= Suffix.size() &&
         Str.compare(Str.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

std::vector<std::string> halide::splitString(const std::string &Str,
                                             char Sep) {
  std::vector<std::string> Result;
  size_t Start = 0;
  while (Start < Str.size()) {
    size_t End = Str.find(Sep, Start);
    if (End == std::string::npos) {
      Result.push_back(Str.substr(Start));
      return Result;
    }
    Result.push_back(Str.substr(Start, End - Start));
    Start = End + 1;
  }
  return Result;
}

std::string halide::replaceAll(std::string Str, const std::string &From,
                               const std::string &To) {
  internal_assert(!From.empty()) << "replaceAll with empty pattern";
  size_t Pos = 0;
  while ((Pos = Str.find(From, Pos)) != std::string::npos) {
    Str.replace(Pos, From.size(), To);
    Pos += To.size();
  }
  return Str;
}
