// audit: the offline relative-serializability auditor (docs/audit.md).
//
// Ingests a JSONL history (the versioned src/obs trace format or the
// minimal generic {"txn","op","object","rw"} dialect, see
// docs/trace-format.md), reconstructs the schedule, replays it through
// the streaming certifier, and reports ACCEPT or VIOLATION. On
// violation it delta-debugs the history to a minimal witness
// sub-history and exports the witness both as a self-contained
// versioned JSONL trace (itself auditable) and as a Chrome trace_event
// file for Perfetto.
//
// Exit codes (stable, for CI and fuzzing):
//   0  history accepted (relatively serializable w.r.t. the spec)
//   1  history violates the specification
//   2  usage, I/O, parse, or version error
//
//   audit [options] FILE         audit FILE ("-" reads stdin)
//   audit --demo [DIR]           worked example; writes traces under DIR
//   audit --self-audit [opts]    audit a ShardedAdmitter committed log
//
// Options:
//   --format=auto|trace|generic  input dialect (default auto-sniff)
//   --stream                     constant-memory epoch-segmented replay:
//                                audit and drop each segment as the
//                                stream quiesces instead of buffering
//                                the whole history (relser-trace with
//                                header txns only; docs/audit.md)
//   --spec=absolute|FILE         override the specification (default:
//                                header-embedded spec, else absolute)
//   --no-minimize                stop at the first rejection
//   --witness-out=PREFIX         witness file prefix (default "witness")
//   --no-witness                 do not write witness files
// Self-audit options:
//   --txns=N --shards=N --clients=N --cross=R --density=R --seed=N
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "relser.h"

#include "audit/audit.h"
#include "audit/ingest.h"
#include "audit/stream.h"

namespace relser {
namespace {

constexpr int kExitAccept = 0;
constexpr int kExitViolation = 1;
constexpr int kExitError = 2;

int Usage() {
  std::fprintf(
      stderr,
      "usage: audit [options] FILE   audit a JSONL history (\"-\" = stdin)\n"
      "       audit --demo [DIR]     worked example (writes traces to DIR)\n"
      "       audit --self-audit     audit a ShardedAdmitter committed log\n"
      "options:\n"
      "  --format=auto|trace|generic   input dialect (default: auto)\n"
      "  --stream                      constant-memory segmented replay\n"
      "                                (relser-trace with header txns)\n"
      "  --spec=absolute|FILE          override the specification\n"
      "  --no-minimize                 stop at the first rejection\n"
      "  --witness-out=PREFIX          witness file prefix (default: "
      "witness)\n"
      "  --no-witness                  do not write witness files\n"
      "self-audit options:\n"
      "  --txns=N --shards=N --clients=N --cross=R --density=R --seed=N\n"
      "exit codes: 0 accept, 1 violation, 2 usage/parse/IO error\n"
      "docs/audit.md has the full reference; docs/trace-format.md the\n"
      "input schema.\n");
  return kExitError;
}

struct CliOptions {
  std::string file;
  std::string format = "auto";
  std::string spec;  // empty = header spec (else absolute)
  std::string witness_out = "witness";
  bool minimize = true;
  bool write_witness = true;
  bool stream = false;
  bool demo = false;
  bool self_audit = false;
  std::string demo_dir = ".";
  // Self-audit knobs.
  std::size_t txns = 256;
  std::size_t shards = 4;
  std::size_t clients = 4;
  double cross = 0.2;
  double density = 0.5;
  std::uint64_t seed = 42;
};

bool ParseArgs(int argc, char** argv, CliOptions* out) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    const auto take = [&](std::string* slot) {
      if (eq != std::string::npos) {
        *slot = value;
        return true;
      }
      if (i + 1 >= argc) return false;
      *slot = argv[++i];
      return true;
    };
    std::string num;
    if (arg == "--demo") {
      out->demo = true;
    } else if (arg == "--self-audit") {
      out->self_audit = true;
    } else if (arg == "--stream") {
      out->stream = true;
    } else if (arg == "--no-minimize") {
      out->minimize = false;
    } else if (arg == "--no-witness") {
      out->write_witness = false;
    } else if (arg == "--format") {
      if (!take(&out->format)) return false;
    } else if (arg == "--spec") {
      if (!take(&out->spec)) return false;
    } else if (arg == "--witness-out") {
      if (!take(&out->witness_out)) return false;
    } else if (arg == "--txns") {
      if (!take(&num)) return false;
      out->txns = static_cast<std::size_t>(std::strtoull(num.c_str(), nullptr, 10));
    } else if (arg == "--shards") {
      if (!take(&num)) return false;
      out->shards = static_cast<std::size_t>(std::strtoull(num.c_str(), nullptr, 10));
    } else if (arg == "--clients") {
      if (!take(&num)) return false;
      out->clients = static_cast<std::size_t>(std::strtoull(num.c_str(), nullptr, 10));
    } else if (arg == "--cross") {
      if (!take(&num)) return false;
      out->cross = std::strtod(num.c_str(), nullptr);
    } else if (arg == "--density") {
      if (!take(&num)) return false;
      out->density = std::strtod(num.c_str(), nullptr);
    } else if (arg == "--seed") {
      if (!take(&num)) return false;
      out->seed = std::strtoull(num.c_str(), nullptr, 10);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "audit: unknown option %s\n", arg.c_str());
      return false;
    } else {
      positional.push_back(arg);
    }
  }
  if (out->demo) {
    if (positional.size() > 1) return false;
    if (!positional.empty()) out->demo_dir = positional[0];
    return true;
  }
  if (out->self_audit) return positional.empty();
  if (positional.size() != 1) return false;
  out->file = positional[0];
  return true;
}

// -- Shared reporting -------------------------------------------------

// `history` is indexed by report.first_rejection; `offset` shifts the
// printed index into the global stream (streaming audits report a
// segment-local history).
void PrintRejection(const TransactionSet& txns,
                    const std::vector<Operation>& history,
                    const AuditReport& report, std::size_t offset = 0) {
  std::string line;
  line += "audit: VIOLATION at history index ";
  line += std::to_string(report.first_rejection + offset);
  line += " (";
  line += ToString(txns, history[report.first_rejection]);
  line += "): ";
  line += AdmitOutcomeName(report.rejection.outcome);
  const ArcWitness& arc = report.rejection.witness_arc;
  if (arc.valid) {
    line += ", witness arc ";
    line += ToString(txns, arc.from);
    line += " -> ";
    line += ToString(txns, arc.to);
    if (arc.arc_kinds != 0) {
      line += " [";
      line += TraceArcKindsToString(arc.arc_kinds);
      line += "]";
    }
  }
  std::printf("%s\n", line.c_str());
}

// Minimization reporting and witness export for an already-printed
// violation. Returns the process exit code.
int ReportWitness(const AuditReport& report, const CliOptions& cli) {
  if (!cli.minimize) return kExitViolation;

  if (!report.minimized) {
    std::printf(
        "audit: minimization budget exhausted after %zu re-checks; "
        "witness not 1-minimal\n",
        report.ddmin_checks);
  }
  std::printf("audit: minimized witness (%zu of %zu ops, %zu txns, %zu "
              "re-checks): %s\n",
              report.witness_ops.size(), report.history_size,
              report.witness.txns.txn_count(), report.ddmin_checks,
              report.witness_text.c_str());
  if (cli.write_witness && report.minimized) {
    const std::string jsonl = cli.witness_out + ".jsonl";
    const std::string chrome = cli.witness_out + ".chrome.json";
    if (!ExportWitness(report, jsonl, chrome)) {
      std::fprintf(stderr, "audit: failed to write witness files\n");
      return kExitError;
    }
    std::printf("audit: wrote %s (auditable) and %s (Perfetto)\n",
                jsonl.c_str(), chrome.c_str());
  }
  return kExitViolation;
}

// Audits an in-memory history and handles reporting, minimization and
// witness export. Returns the process exit code.
int AuditAndReport(const TransactionSet& txns, const AtomicitySpec& spec,
                   const std::vector<Operation>& history,
                   const CliOptions& cli) {
  AuditOptions options;
  options.minimize = cli.minimize;
  const AuditReport report = AuditHistory(txns, spec, history, options);

  if (report.accepted) {
    std::printf("audit: ACCEPT — %zu ops relatively serializable\n",
                report.ops_checked);
    return kExitAccept;
  }
  PrintRejection(txns, history, report);
  return ReportWitness(report, cli);
}

// -- Stream mode ------------------------------------------------------

// Constant-memory epoch-segmented replay (audit/stream.h): segments
// are audited and dropped as the stream quiesces, so an unbounded pipe
// audits in bounded memory. Verdict-identical to the batch path.
int RunStream(const CliOptions& cli) {
  if (cli.format == "generic") {
    std::fprintf(stderr,
                 "audit: --stream requires the relser-trace dialect "
                 "(generic histories only define their transaction set "
                 "at end of input)\n");
    return kExitError;
  }

  StreamAuditOptions options;
  options.audit.minimize = cli.minimize;
  std::string spec_source = "header";
  if (!cli.spec.empty()) {
    if (cli.spec == "absolute") {
      options.spec_absolute = true;
      spec_source = "absolute (forced)";
    } else {
      std::ifstream spec_file(cli.spec);
      if (!spec_file) {
        std::fprintf(stderr, "audit: cannot open spec file %s\n",
                     cli.spec.c_str());
        return kExitError;
      }
      std::ostringstream text;
      text << spec_file.rdbuf();
      options.spec_text = text.str();
      spec_source = cli.spec;
    }
  }

  Result<StreamAuditResult> streamed = StreamAuditTraceFile(cli.file, options);
  if (!streamed.ok()) {
    std::fprintf(stderr, "audit: %s: %s\n", cli.file.c_str(),
                 streamed.status().message().c_str());
    return kExitError;
  }
  const StreamAuditResult& result = streamed.value();
  if (spec_source == "header" && !result.header.spec_from_header) {
    spec_source = "absolute";
  }

  std::printf(
      "audit: %s: streamed %zu ops over %zu txns in %zu segments "
      "(peak %zu ops retained, spec: %s)\n",
      cli.file.c_str(), result.ops, result.header.txns.txn_count(),
      result.segments, result.max_segment_ops, spec_source.c_str());
  if (result.accepted) {
    std::printf("audit: ACCEPT — %zu ops relatively serializable\n",
                result.ops);
    return kExitAccept;
  }
  PrintRejection(result.header.txns, result.segment_ops, result.report,
                 result.segment_start);
  return ReportWitness(result.report, cli);
}

// -- File mode --------------------------------------------------------

int RunFile(const CliOptions& cli) {
  IngestOptions ingest;
  if (cli.format == "trace") {
    ingest.dialect = TraceDialect::kRelserTrace;
  } else if (cli.format == "generic") {
    ingest.dialect = TraceDialect::kGeneric;
  } else if (cli.format != "auto") {
    std::fprintf(stderr, "audit: bad --format %s\n", cli.format.c_str());
    return kExitError;
  }

  Result<AuditInput> input = IngestHistoryFile(cli.file, ingest);
  if (!input.ok()) {
    std::fprintf(stderr, "audit: %s: %s\n", cli.file.c_str(),
                 input.status().message().c_str());
    return kExitError;
  }
  AuditInput in = std::move(input).value();

  std::string spec_source = in.spec_from_header ? "header" : "absolute";
  if (!cli.spec.empty()) {
    if (cli.spec == "absolute") {
      in.spec = AtomicitySpec(in.txns);
      spec_source = "absolute (forced)";
    } else {
      std::ifstream spec_file(cli.spec);
      if (!spec_file) {
        std::fprintf(stderr, "audit: cannot open spec file %s\n",
                     cli.spec.c_str());
        return kExitError;
      }
      std::ostringstream text;
      text << spec_file.rdbuf();
      Result<AtomicitySpec> parsed = ParseAtomicitySpec(in.txns, text.str());
      if (!parsed.ok()) {
        std::fprintf(stderr, "audit: %s: %s\n", cli.spec.c_str(),
                     parsed.status().message().c_str());
        return kExitError;
      }
      in.spec = std::move(parsed).value();
      spec_source = cli.spec;
    }
  }

  const char* dialect =
      in.dialect == TraceDialect::kGeneric ? "generic" : "relser-trace";
  std::printf("audit: %s: %zu ops over %zu txns (%s, spec: %s)\n",
              cli.file.c_str(), in.history.size(), in.txns.txn_count(),
              dialect, spec_source.c_str());
  return AuditAndReport(in.txns, in.spec, in.history, cli);
}

// -- Demo mode --------------------------------------------------------

// Replays `ops` through a fully-traced checker and writes the
// versioned JSONL trace (txns + spec embedded). Returns false when any
// operation is rejected or the file cannot be written.
bool WriteCheckedTrace(const TransactionSet& txns, const AtomicitySpec& spec,
                       const std::vector<Operation>& ops,
                       const std::string& path) {
  Tracer tracer(TraceLevel::kFull);
  OnlineRsrChecker checker(txns, spec);
  checker.set_tracer(&tracer);
  std::vector<std::uint32_t> fed(txns.txn_count(), 0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    tracer.SetTick(i);
    if (!checker.TryAppend(ops[i]).ok()) return false;
    tracer.RecordAdmit(ops[i], i, 0);
    if (++fed[ops[i].txn] == txns.txn(ops[i].txn).size()) {
      tracer.RecordCommit(ops[i].txn, i);
    }
  }
  return WriteTraceJsonl(tracer, txns, path, ToString(txns, spec));
}

// The docs/audit.md worked example: Figure 3's schedule S2 audits
// clean; flipping its final read r1[z] into a write w1[z] closes the
// conflict cycle T1 -> T2 -> T3 -> T1, and the auditor reduces the
// violation to the six-operation witness. Figure 1's S2 shows the
// other direction: accepted under its relative spec, rejected under
// absolute atomicity.
int RunDemo(const CliOptions& cli) {
  const std::string dir = cli.demo_dir;
  bool ok = true;

  // 1. Export Figure 3's S2 and audit the file round-trip.
  PaperExample fig3 = Figure3();
  const std::string fig3_path = dir + "/fig3_s2.jsonl";
  if (!WriteCheckedTrace(fig3.txns, fig3.spec, fig3.schedule("S2").ops(),
                         fig3_path)) {
    std::fprintf(stderr, "audit: demo: cannot write %s\n", fig3_path.c_str());
    return kExitError;
  }
  std::printf("demo: wrote %s (Figure 3, schedule S2, spec embedded)\n",
              fig3_path.c_str());
  {
    Result<AuditInput> in = IngestHistoryFile(fig3_path);
    if (!in.ok()) {
      std::fprintf(stderr, "audit: demo: %s\n",
                   in.status().message().c_str());
      return kExitError;
    }
    const AuditReport report =
        AuditHistory(in.value().txns, in.value().spec, in.value().history);
    std::printf("demo: audit %s -> %s\n", fig3_path.c_str(),
                report.accepted ? "ACCEPT" : "VIOLATION");
    ok = ok && report.accepted;
  }

  // 2. The mutated Figure 3 history, in the generic dialect: one
  //    flipped bit ("rw":"r" -> "w" on the last line) makes it
  //    unserializable, and absolute atomicity (the generic default)
  //    rejects it.
  const std::string mutated_path = dir + "/fig3_mutated.jsonl";
  {
    std::ofstream out(mutated_path);
    out << "{\"txn\": 1, \"op\": 0, \"object\": \"x\", \"rw\": \"w\"}\n"
        << "{\"txn\": 2, \"op\": 0, \"object\": \"x\", \"rw\": \"r\"}\n"
        << "{\"txn\": 3, \"op\": 0, \"object\": \"z\", \"rw\": \"r\"}\n"
        << "{\"txn\": 2, \"op\": 1, \"object\": \"y\", \"rw\": \"w\"}\n"
        << "{\"txn\": 3, \"op\": 1, \"object\": \"y\", \"rw\": \"r\"}\n"
        << "{\"txn\": 1, \"op\": 1, \"object\": \"z\", \"rw\": \"w\"}\n";
    if (!out) {
      std::fprintf(stderr, "audit: demo: cannot write %s\n",
                   mutated_path.c_str());
      return kExitError;
    }
  }
  std::printf("demo: wrote %s (Figure 3 with r1[z] flipped to w1[z])\n",
              mutated_path.c_str());
  {
    Result<AuditInput> in = IngestHistoryFile(mutated_path);
    if (!in.ok()) {
      std::fprintf(stderr, "audit: demo: %s\n",
                   in.status().message().c_str());
      return kExitError;
    }
    const AuditReport report =
        AuditHistory(in.value().txns, in.value().spec, in.value().history);
    std::printf("demo: audit %s -> %s\n", mutated_path.c_str(),
                report.accepted ? "ACCEPT" : "VIOLATION");
    ok = ok && !report.accepted && report.minimized;
    if (report.minimized) {
      std::printf("demo: minimized witness (%zu ops): %s\n",
                  report.witness_ops.size(), report.witness_text.c_str());
      const std::string jsonl = dir + "/fig3_witness.jsonl";
      const std::string chrome = dir + "/fig3_witness.chrome.json";
      ok = ExportWitness(report, jsonl, chrome) && ok;
      std::printf("demo: wrote %s and %s\n", jsonl.c_str(), chrome.c_str());
    }
  }

  // 3. Figure 1's S2: relatively serializable under the paper's spec,
  //    a violation under absolute atomicity — the relaxation at work.
  PaperExample fig1 = Figure1();
  {
    const std::vector<Operation>& ops = fig1.schedule("S2").ops();
    const AuditReport own = AuditHistory(fig1.txns, fig1.spec, ops);
    const AuditReport abs =
        AuditHistory(fig1.txns, AtomicitySpec(fig1.txns), ops);
    std::printf("demo: Figure 1 S2 under its relative spec -> %s\n",
                own.accepted ? "ACCEPT" : "VIOLATION");
    std::printf("demo: Figure 1 S2 under absolute atomicity -> %s\n",
                abs.accepted ? "ACCEPT" : "VIOLATION");
    ok = ok && own.accepted && !abs.accepted && abs.minimized;
    if (abs.minimized) {
      std::printf("demo: minimized witness (%zu ops): %s\n",
                  abs.witness_ops.size(), abs.witness_text.c_str());
      const std::string jsonl = dir + "/fig1_witness.jsonl";
      const std::string chrome = dir + "/fig1_witness.chrome.json";
      ok = ExportWitness(abs, jsonl, chrome) && ok;
      std::printf("demo: wrote %s and %s\n", jsonl.c_str(), chrome.c_str());

      // The witness trace embeds its own txns + spec: audit it back.
      Result<AuditInput> in = IngestHistoryFile(jsonl);
      if (in.ok()) {
        const AuditReport again =
            AuditHistory(in.value().txns, in.value().spec,
                         in.value().history);
        std::printf("demo: re-audit %s -> %s\n", jsonl.c_str(),
                    again.accepted ? "ACCEPT" : "VIOLATION (as expected)");
        ok = ok && !again.accepted;
      } else {
        std::fprintf(stderr, "audit: demo: %s\n",
                     in.status().message().c_str());
        ok = false;
      }
    }
  }

  std::printf("demo: %s\n", ok ? "all steps behaved as documented"
                               : "UNEXPECTED RESULT — see above");
  return ok ? kExitAccept : kExitError;
}

// -- Self-audit mode --------------------------------------------------

// Runs a client fleet through a range-sharded ShardedAdmitter and
// audits the merged committed log: the subsystem's output must itself
// pass the auditor it was built against.
int RunSelfAudit(const CliOptions& cli) {
  Rng rng(cli.seed);
  ShardedWorkloadParams wp;
  wp.txn_count = cli.txns;
  wp.min_ops_per_txn = 3;
  wp.max_ops_per_txn = 8;
  wp.shard_count = cli.shards;
  wp.objects_per_shard = 16;
  wp.cross_shard_ratio = cli.cross;
  wp.zipf_theta = 0.6;
  const TransactionSet txns = GenerateShardedTransactions(wp, &rng);
  const AtomicitySpec spec = RandomSpec(txns, cli.density, &rng);

  ShardedAdmitter admitter(
      txns, spec,
      ShardRouter(txns.object_count(), cli.shards, ShardStrategy::kRange));
  std::vector<std::thread> fleet;
  fleet.reserve(cli.clients);
  for (std::size_t c = 0; c < cli.clients; ++c) {
    fleet.emplace_back([&, c] {
      Backoff backoff(cli.seed ^ (0x5A4D0000ULL + c));
      for (TxnId t = static_cast<TxnId>(c); t < txns.txn_count();
           t = static_cast<TxnId>(t + cli.clients)) {
        for (std::uint32_t i = 0; i < txns.txn(t).size(); ++i) {
          if (!admitter.SubmitWithBackoff(txns.txn(t).op(i), backoff).ok()) {
            break;  // rejected or cascade-aborted
          }
        }
        backoff.Reset();
      }
    });
  }
  for (std::thread& client : fleet) client.join();
  admitter.Stop();

  const std::vector<Operation> committed = admitter.CommittedLog();
  std::printf("self-audit: %zu txns over %zu shards, %zu clients -> %zu "
              "committed ops\n",
              txns.txn_count(), cli.shards, cli.clients, committed.size());
  const int code = AuditAndReport(txns, spec, committed, cli);
  if (code != kExitAccept) {
    std::fprintf(stderr,
                 "self-audit: committed log is NOT relatively "
                 "serializable — admission soundness bug\n");
  }
  return code;
}

int Main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) return Usage();
  if (cli.demo) return RunDemo(cli);
  if (cli.self_audit) return RunSelfAudit(cli);
  if (cli.stream) return RunStream(cli);
  return RunFile(cli);
}

}  // namespace
}  // namespace relser

int main(int argc, char** argv) { return relser::Main(argc, argv); }
