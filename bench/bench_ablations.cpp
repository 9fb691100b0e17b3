//===- bench_ablations.cpp - BigFoot design-choice ablations ------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Isolates each BigFoot ingredient the paper credits (Sections 3-6):
// anticipation (check motion past releases and out of loops), loop-check
// hoisting, the Section 4 coalescing step, static field proxies, and the
// dynamic footprint/compression runtime. Each row disables exactly one.
// Each workload's base run and six variants are timed together in
// rotated rounds (timeRounds), so every overhead is over the base runs of
// the same rounds.
//
//===----------------------------------------------------------------------===//

#include "analysis/FieldProxy.h"
#include "bfj/Parser.h"
#include "harness/Experiment.h"
#include "instrument/Instrumenters.h"
#include "support/TablePrinter.h"
#include "vm/Vm.h"

#include <iostream>
#include <memory>

using namespace bigfoot;

namespace {

struct Variant {
  std::string Name;
  PlacementOptions Placement;
  bool UseProxies = true;
  bool DeferAndCompress = true;
};

std::vector<Variant> variants() {
  std::vector<Variant> Out;
  Out.push_back({"bigfoot(full)", PlacementOptions(), true, true});
  Variant NoAnt{"no-anticipation", PlacementOptions(), true, true};
  NoAnt.Placement.UseAnticipation = false;
  Out.push_back(NoAnt);
  Variant NoHoist{"no-loop-hoist", PlacementOptions(), true, true};
  NoHoist.Placement.HoistLoopChecks = false;
  Out.push_back(NoHoist);
  Variant NoCoalesce{"no-coalescing", PlacementOptions(), true, true};
  NoCoalesce.Placement.CoalesceChecks = false;
  Out.push_back(NoCoalesce);
  Out.push_back({"no-field-proxies", PlacementOptions(), false, true});
  Out.push_back({"no-dyn-compression", PlacementOptions(), true, false});
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  // Representative workloads: structured arrays, field groups, triangular,
  // sync-heavy, irregular.
  const char *Names[] = {"crypt", "raytracer", "lufact", "tomcat",
                         "jython"};
  const std::vector<Variant> Variants = variants();
  VmOptions VmOpts;
  VmOpts.Seed = Args.Opts.Seed;

  // Rows[V]: variant V's name, then its "check ratio/overhead" on each
  // workload.
  std::vector<std::vector<std::string>> Rows;
  for (const Variant &V : Variants)
    Rows.push_back({V.Name});
  for (const char *N : Names) {
    std::shared_ptr<const Program> Prog =
        parseProgramOrDie(workloadByName(N, Args.Scale).Source);
    // Leg 0 is the base run, leg 1 + V variant V.
    std::vector<TimedLeg> Legs(1 + Variants.size());
    Legs[0].Name = "base";
    Legs[0].Run = [Prog, VmOpts] { return runProgramBase(*Prog, VmOpts); };
    for (size_t V = 0; V < Variants.size(); ++V) {
      InstrumentedProgram IP = instrumentBigFoot(*Prog, Variants[V].Placement);
      DetectorConfig Tool = IP.Tool;
      if (!Variants[V].UseProxies)
        Tool.FieldProxy.clear();
      if (!Variants[V].DeferAndCompress) {
        Tool.DeferArrayChecks = false;
        Tool.AdaptiveArrayShadow = false;
      }
      std::shared_ptr<const Program> Placed = std::move(IP.Prog);
      Legs[1 + V].Name = Variants[V].Name;
      Legs[1 + V].Run = [Placed, Tool, VmOpts] {
        return runProgram(*Placed, Tool, VmOpts);
      };
    }
    for (TimedLeg &L : Legs) {
      L.Reference = L.Run();
      if (!L.Reference.Ok) {
        std::cerr << N << "/" << L.Name << " failed: " << L.Reference.Error
                  << "\n";
        return 1;
      }
    }
    std::vector<std::vector<double>> Seconds =
        timeRounds(N, Legs, Args.Opts.Iterations);
    for (size_t V = 0; V < Variants.size(); ++V) {
      const Stats &Counters = Legs[1 + V].Reference.Counters;
      uint64_t Events = Counters.get("tool.checkEvents.field") +
                        Counters.get("tool.checkEvents.array");
      uint64_t Accesses = Counters.get("vm.accesses");
      double Ratio = Accesses ? static_cast<double>(Events) / Accesses : 0;
      Rows[V].push_back(
          TablePrinter::num(Ratio, 2) + "/" +
          TablePrinter::num(overheadOf(Seconds[1 + V], Seconds[0]), 2));
    }
  }

  TablePrinter Table("BigFoot ablations (check ratio / overhead x)");
  std::vector<std::string> Header = {"Variant"};
  for (const char *N : Names)
    Header.push_back(N);
  Table.addRow(Header);
  for (const std::vector<std::string> &Row : Rows)
    Table.addRow(Row);
  Table.print(std::cout);
  std::cout << "\nExpected: every ablation raises the check ratio and/or "
               "overhead somewhere —\nanticipation & hoisting matter for "
               "array kernels (crypt, lufact), proxies for\nfield-group "
               "programs (raytracer), dynamic compression for everything "
               "array-shaped.\n";
  return 0;
}
