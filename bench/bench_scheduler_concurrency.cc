// CONC — the concurrency claim (abstract, Sections 1 and 5): using
// semantic information "improves concurrency and allows interleavings
// among transactions which are non-serializable".
//
// Sweeps the specification granularity (breakpoint density) at fixed
// contention and reports, for every protocol, makespan / throughput /
// blocking / aborts. Expected shape:
//   * serial is the floor; 2PL and SGT are insensitive to the spec;
//   * RSGT and unit-2PL improve monotonically as specs grant more
//     breakpoints, overtaking the classical protocols;
//   * at density 0 every protocol degenerates to its classical self.
#include <iostream>

#include "util/json.h"
#include "sched/engine.h"
#include "sched/factory.h"
#include "sched/verify.h"
#include "util/table.h"
#include "workload/generator.h"
#include "workload/spec_gen.h"

int main() {
  using namespace relser;
  std::cout << "== CONC: scheduler throughput vs spec granularity ==\n\n";

  constexpr int kRuns = 8;
  const double densities[] = {0.0, 0.25, 0.5, 0.75, 1.0};

  AsciiTable table({"density", "scheduler", "makespan", "throughput",
                    "blocks", "aborts", "cascades", "guarantee"});
  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("scheduler_concurrency");
  json.Key("runs_per_cell");
  json.Int(kRuns);
  json.Key("cells");
  json.BeginArray();
  bool all_guarantees = true;
  for (const double density : densities) {
    for (const std::string& name : AllSchedulerNames()) {
      double makespan_sum = 0;
      double throughput_sum = 0;
      std::size_t blocks = 0;
      std::size_t aborts = 0;
      std::size_t cascades = 0;
      bool guarantee = true;
      Rng rng(777);  // same workloads for every scheduler and density
      for (int run = 0; run < kRuns; ++run) {
        WorkloadParams wp;
        wp.txn_count = 10;
        wp.min_ops_per_txn = 6;
        wp.max_ops_per_txn = 10;
        wp.object_count = 12;
        wp.zipf_theta = 0.6;
        wp.read_ratio = 0.5;
        const TransactionSet txns = GenerateTransactions(wp, &rng);
        const AtomicitySpec spec =
            RandomUniformObserverSpec(txns, density, &rng);
        auto scheduler = MakeScheduler(name, txns, spec);
        SimParams sp;
        sp.seed = 1000 + static_cast<std::uint64_t>(run);
        sp.think_time = {1};
        sp.max_ticks = 500000;
        const SimResult result = RunSimulation(txns, scheduler.get(), sp);
        const RunVerification verification =
            VerifyRun(txns, spec, result, GuaranteeOf(name));
        guarantee = guarantee && verification.guarantee_held &&
                    result.metrics.completed;
        makespan_sum += static_cast<double>(result.metrics.makespan);
        throughput_sum += result.metrics.Throughput();
        blocks += result.metrics.blocks;
        aborts += result.metrics.aborts;
        cascades += result.metrics.cascade_aborts;
      }
      all_guarantees = all_guarantees && guarantee;
      table.AddRow({FormatDouble(density, 2), name,
                    FormatDouble(makespan_sum / kRuns, 1),
                    FormatDouble(throughput_sum / kRuns),
                    std::to_string(blocks / kRuns),
                    std::to_string(aborts / kRuns),
                    std::to_string(cascades / kRuns),
                    guarantee ? "held" : "VIOLATED"});
      json.BeginObject();
      json.Key("density");
      json.Double(density);
      json.Key("scheduler");
      json.String(name);
      json.Key("makespan");
      json.Double(makespan_sum / kRuns);
      json.Key("throughput");
      json.Double(throughput_sum / kRuns);
      json.Key("blocks");
      json.Uint(blocks / kRuns);
      json.Key("aborts");
      json.Uint(aborts / kRuns);
      json.Key("cascades");
      json.Uint(cascades / kRuns);
      json.Key("guarantee_held");
      json.Bool(guarantee);
      json.EndObject();
    }
  }
  json.EndArray();
  json.Key("all_guarantees_held");
  json.Bool(all_guarantees);
  json.EndObject();
  table.Print(std::cout);
  const bool json_ok =
      WriteBenchJsonFile("BENCH_sched_concurrency.json", json.str(),
                         /*smoke=*/false);
  std::cout << "\nguarantees: " << (all_guarantees ? "all held" : "VIOLATED")
            << "\n"
            << (json_ok ? "wrote" : "FAILED to write")
            << " BENCH_sched_concurrency.json\n";
  return (all_guarantees && json_ok) ? 0 : 1;
}
