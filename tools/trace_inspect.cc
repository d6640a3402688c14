// trace_inspect: analyze (and produce) relser JSONL traces.
//
// Usage:
//   trace_inspect <trace.jsonl>
//       Print the summary report: event totals, epoch-GC and exact-abort
//       restoration tallies, top blocking arcs, longest-delayed
//       operations, per-transaction wait breakdown.
//   trace_inspect --check <trace.jsonl>
//       Validate the file against the normative versioned schema
//       (docs/trace-format.md) — the same validator tools/audit and
//       the CI smoke use; exit non-zero on any violation.
//   trace_inspect --demo <scheduler> <out.jsonl> [out.chrome.json]
//       Replay a paper schedule through the named scheduler
//       (sched/factory.h names) with full tracing and write the JSONL
//       trace (and optionally a Chrome trace_event file for
//       chrome://tracing / Perfetto). Schedulers that block ("ra", the
//       2PL family) replay Figure 3's S2, whose open atomic unit delays
//       r2[x] behind the F-arc r1[z] -> r2[x]; the certification
//       schedulers replay Figure 1's S2.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "relser.h"

namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: trace_inspect <trace.jsonl>\n"
               "       trace_inspect --check <trace.jsonl>\n"
               "       trace_inspect --demo <scheduler> <out.jsonl> "
               "[out.chrome.json]\n");
  return 2;
}

int RunSummary(const std::string& path) {
  std::string content;
  if (!ReadFile(path, &content)) {
    std::fprintf(stderr, "trace_inspect: cannot read %s\n", path.c_str());
    return 1;
  }
  const relser::TraceSummary summary =
      relser::SummarizeTraceJsonl(content);
  std::fputs(relser::RenderTraceSummary(summary).c_str(), stdout);
  return 0;
}

int RunCheck(const std::string& path) {
  std::string content;
  if (!ReadFile(path, &content)) {
    std::fprintf(stderr, "trace_inspect: cannot read %s\n", path.c_str());
    return 1;
  }
  const relser::TraceValidation validation =
      relser::ValidateTraceJsonl(content);
  if (validation.ok) {
    std::printf("%zu events OK\n", validation.lines);
    return 0;
  }
  for (const std::string& error : validation.errors) {
    std::fprintf(stderr, "%s\n", error.c_str());
  }
  return 1;
}

int RunDemo(const std::string& scheduler_name, const std::string& jsonl_path,
            const std::string& chrome_path) {
  // Blocking schedulers show genuine delays on Figure 3's S2 (T1's
  // open unit [w1[x] r1[z]] relative to T2 delays r2[x]); the
  // certification schedulers decide Figure 1's S2 outright.
  const bool blocking = scheduler_name == "ra" || scheduler_name == "2pl" ||
                        scheduler_name == "unit2pl" ||
                        scheduler_name == "altruistic";
  const relser::PaperExample example =
      blocking ? relser::Figure3() : relser::Figure1();
  const relser::Schedule& schedule = example.schedule("S2");

  const auto scheduler =
      relser::MakeScheduler(scheduler_name, example.txns, example.spec);
  if (scheduler == nullptr) {
    std::fprintf(stderr, "trace_inspect: unknown scheduler %s\n",
                 scheduler_name.c_str());
    return 1;
  }

  relser::Tracer tracer(relser::TraceLevel::kFull);
  const relser::ReplayResult result = relser::ReplaySchedule(
      example.txns, scheduler.get(), schedule, &tracer);
  std::printf("%s S2 under %s: %zu granted, %zu delays, %zu aborts over "
              "%zu rounds\n",
              example.name.c_str(), scheduler_name.c_str(), result.granted,
              result.delays, result.aborted_txns, result.rounds);

  if (!relser::WriteTraceJsonl(tracer, example.txns, jsonl_path,
                               relser::ToString(example.txns, example.spec))) {
    std::fprintf(stderr, "trace_inspect: cannot write %s\n",
                 jsonl_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu events)\n", jsonl_path.c_str(),
              tracer.events().size());
  if (!chrome_path.empty()) {
    if (!relser::WriteChromeTrace(tracer, example.txns, chrome_path)) {
      std::fprintf(stderr, "trace_inspect: cannot write %s\n",
                   chrome_path.c_str());
      return 1;
    }
    std::printf("wrote %s (open in chrome://tracing or ui.perfetto.dev)\n",
                chrome_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  if (mode == "--check") {
    if (argc != 3) return Usage();
    return RunCheck(argv[2]);
  }
  if (mode == "--demo") {
    if (argc != 4 && argc != 5) return Usage();
    return RunDemo(argv[2], argv[3], argc == 5 ? argv[4] : "");
  }
  if (argc != 2 || mode.rfind("--", 0) == 0) return Usage();
  return RunSummary(mode);
}
