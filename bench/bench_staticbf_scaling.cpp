//===- bench_staticbf_scaling.cpp - StaticBF scalability (Section 6.1) -------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Section 6.1: StaticBF takes on average <0.2s per method, about 10% of it
// in Z3. Here we time the placement analysis per workload and per method,
// and count its entailment work: H ⊢ h queries asked, constraint systems
// prepared for them, and Fourier-Motzkin refutations run. The counts are
// deterministic, so they compare across machines where times do not.
//
//===----------------------------------------------------------------------===//

#include "analysis/CheckPlacement.h"
#include "bfj/Parser.h"
#include "harness/Experiment.h"
#include "support/TablePrinter.h"

#include <iostream>

using namespace bigfoot;

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);

  TablePrinter Table("StaticBF analysis time");
  Table.addRow({"Program", "Methods", "Checks", "Renames", "Queries",
                "Systems", "Refutations", "Total(s)", "s/method"});
  double TotalSec = 0;
  unsigned TotalMethods = 0;
  EntailmentCounts Total;
  for (const Workload &W : standardSuite(Args.Scale)) {
    auto Prog = parseProgramOrDie(W.Source.c_str());
    // Take the best of N to smooth noise; --iters=0 places once, as the
    // other benches' untimed runs do, so the counts are always printed.
    PlacementStats Stats = placeBigFootChecks(*Prog->clone());
    double Best = Stats.AnalysisSeconds;
    for (int I = 1; I < Args.Opts.Iterations; ++I) {
      PlacementStats S = placeBigFootChecks(*Prog->clone());
      if (S.AnalysisSeconds < Best) {
        Best = S.AnalysisSeconds;
        Stats = S;
      }
    }
    Table.addRow({W.Name, std::to_string(Stats.MethodsProcessed),
                  std::to_string(Stats.ChecksInserted),
                  std::to_string(Stats.RenamesInserted),
                  std::to_string(Stats.Entailment.Queries),
                  std::to_string(Stats.Entailment.Systems),
                  std::to_string(Stats.Entailment.Refutations),
                  TablePrinter::num(Best, 4),
                  TablePrinter::num(Best / Stats.MethodsProcessed, 4)});
    TotalSec += Best;
    TotalMethods += Stats.MethodsProcessed;
    Total.Queries += Stats.Entailment.Queries;
    Total.Systems += Stats.Entailment.Systems;
    Total.Refutations += Stats.Entailment.Refutations;
  }
  Table.addRow({"Total", std::to_string(TotalMethods), "", "",
                std::to_string(Total.Queries), std::to_string(Total.Systems),
                std::to_string(Total.Refutations),
                TablePrinter::num(TotalSec, 4),
                TablePrinter::num(TotalSec / TotalMethods, 4)});
  Table.print(std::cout);

  std::cout << "\nPaper shape: analysis well under 0.2 s/method.\n";
  return 0;
}
