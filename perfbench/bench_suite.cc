/// \file bench_suite.cc
/// The repository benchmark: one process runs one named workload.
///
///   bench_suite --workload=<name> --seed=<n> --seconds=<s> --json=<out>
///               [--trace=<spans.json>] [--tmp=<dir>] [--git-sha=<sha>]
///   bench_suite --smoke
///
/// Workloads (see README.md for why each was chosen): e1_selfjoin,
/// e3_regionjoin, serve_mixed, stream_cep. Every run checks its answers
/// against an exact reference and exits non-zero when one is wrong.
/// `--smoke` runs all four at tiny sizes (the full-size E1 pair count
/// included) — the BenchmarkSmoke test.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/columnar.h"
#include "fault/failpoint.h"
#include "harness.h"

namespace perfbench {
namespace {

constexpr const char* kWorkloads[] = {"e1_selfjoin", "e3_regionjoin",
                                      "serve_mixed", "stream_cep"};

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "e1_selfjoin") return MakeE1SelfJoin(options);
  if (options.workload == "e3_regionjoin") return MakeE3RegionJoin(options);
  if (options.workload == "serve_mixed") return MakeServeMixed(options);
  if (options.workload == "stream_cep") return MakeStreamCep(options);
  return nullptr;
}

/// Run hygiene: numbers taken with fault injection armed, the columnar
/// plane switched off, or the library's own tracing/export on would not be
/// comparable with any other run, so the harness refuses to time them.
bool EnvironmentIsClean() {
  bool clean = true;
  for (const char* var : {"STARK_FAILPOINTS", "STARK_TRACE",
                          "STARK_METRICS_EXPORT"}) {
    const char* value = std::getenv(var);
    if (value != nullptr && *value != '\0') {
      std::fprintf(stderr, "refusing to time: %s is set\n", var);
      clean = false;
    }
  }
  if (!stark::columnar::Enabled()) {
    std::fprintf(stderr, "refusing to time: STARK_COLUMNAR disables the "
                         "columnar plane\n");
    clean = false;
  }
  for (const stark::fault::FailPoint* fp :
       stark::fault::DefaultFailPoints().List()) {
    if (fp->armed()) {
      std::fprintf(stderr, "refusing to time: fail point %s is armed\n",
                   fp->name().c_str());
      clean = false;
    }
  }
  return clean;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--smoke") {
      options->smoke = true;
    } else if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options->seconds > 0)) {
        return false;
      }
    } else if (key == "--json") {
      options->json_path = value;
    } else if (key == "--trace") {
      options->trace_path = value;
    } else if (key == "--tmp") {
      options->tmp_dir = value;
    } else if (key == "--git-sha") {
      options->git_sha = value;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int RunOne(const Options& options) {
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.tmp_dir, ec);
  try {
    return RunWorkload(workload.get(), options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s aborted: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
}

/// Every workload untraced and traced at tiny sizes, with all gates.
int RunSmoke(const Options& base) {
  int failures = 0;
  for (const char* name : kWorkloads) {
    for (const bool traced : {false, true}) {
      Options options = base;
      options.workload = name;
      options.seconds = 0.4;
      options.trace_path =
          traced ? options.tmp_dir + "/smoke-" + name + ".trace.json" : "";
      std::fprintf(stderr, "[smoke] %s%s\n", name, traced ? " (traced)" : "");
      if (RunOne(options) != 0) ++failures;
    }
  }
  std::fprintf(stderr, "[smoke] %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: bench_suite --workload=<name> --seed=<n> "
                 "--seconds=<s> [--json=<out>] [--trace=<spans>] "
                 "[--tmp=<dir>] [--git-sha=<sha>] | --smoke\n");
    return 2;
  }
  if (!perfbench::EnvironmentIsClean()) return 2;
  if (options.smoke) return perfbench::RunSmoke(options);
  return perfbench::RunOne(options);
}
