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
// The suite's methods are small. --sizes=N[,N...] also places, for each N,
// one seeded single-method program of N blocks (counted array loops,
// stride-2 loops, lock-guarded field updates, if/else and field reads), to
// show how placement grows with the size of a method.
//
//===----------------------------------------------------------------------===//

#include "analysis/CheckPlacement.h"
#include "bfj/Parser.h"
#include "harness/Experiment.h"
#include "support/ParseNumber.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

using namespace bigfoot;

namespace {

/// Places a clone of \p Prog and keeps the fastest of \p Iterations
/// placements; --iters=0 places once, as the other benches' untimed runs
/// do, so the counts are always printed.
PlacementStats placeBest(const Program &Prog, int Iterations) {
  PlacementStats Stats = placeBigFootChecks(*Prog.clone());
  for (int I = 1; I < Iterations; ++I) {
    PlacementStats S = placeBigFootChecks(*Prog.clone());
    if (S.AnalysisSeconds < Stats.AnalysisSeconds)
      Stats = S;
  }
  return Stats;
}

/// Takes --sizes=N[,N...] out of \p Argv (the other options are the
/// shared bench options) and returns its block counts, empty without it.
/// A malformed list prints an error and exits with status 1.
std::vector<unsigned> takeSizes(int &Argc, char **Argv) {
  static const char Flag[] = "--sizes=";
  std::vector<unsigned> Sizes;
  int Kept = 1;
  for (int I = 1; I < Argc; ++I) {
    if (std::strncmp(Argv[I], Flag, sizeof(Flag) - 1) != 0) {
      Argv[Kept++] = Argv[I];
      continue;
    }
    Sizes.clear();
    std::string_view List = Argv[I] + sizeof(Flag) - 1;
    while (true) {
      size_t Comma = std::min(List.find(','), List.size());
      unsigned N = 0;
      if (!parseNumber(List.substr(0, Comma), N) || N == 0) {
        std::fprintf(stderr,
                     "%s: error: %s: expected a comma-separated list of "
                     "positive block counts\n",
                     Argv[0], Argv[I]);
        std::exit(1);
      }
      Sizes.push_back(N);
      if (Comma == List.size())
        break;
      List.remove_prefix(Comma + 1);
    }
  }
  Argc = Kept;
  return Sizes;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<unsigned> Sizes = takeSizes(Argc, Argv);
  BenchArgs Args = parseBenchArgs(Argc, Argv);

  TablePrinter Table("StaticBF analysis time");
  Table.addRow({"Program", "Methods", "Checks", "Renames", "Queries",
                "Systems", "Refutations", "Total(s)", "s/method"});
  double TotalSec = 0;
  unsigned TotalMethods = 0;
  EntailmentCounts Total;
  for (const Workload &W : standardSuite(Args.Scale)) {
    auto Prog = parseProgramOrDie(W.Source.c_str());
    PlacementStats Stats = placeBest(*Prog, Args.Opts.Iterations);
    double Best = Stats.AnalysisSeconds;
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

  if (!Sizes.empty()) {
    TablePrinter Grown("StaticBF on one generated method of N blocks (seed " +
                       std::to_string(Args.Opts.Seed) + ")");
    Grown.addRow({"Blocks", "Lines", "Checks", "Queries", "Systems",
                  "Refutations", "Total(s)"});
    for (unsigned N : Sizes) {
      std::string Source = generatedMethodProgram(N, Args.Opts.Seed);
      auto Prog = parseProgramOrDie(Source);
      PlacementStats Stats = placeBest(*Prog, Args.Opts.Iterations);
      Grown.addRow({std::to_string(N),
                    std::to_string(std::count(Source.begin(), Source.end(),
                                              '\n')),
                    std::to_string(Stats.ChecksInserted),
                    std::to_string(Stats.Entailment.Queries),
                    std::to_string(Stats.Entailment.Systems),
                    std::to_string(Stats.Entailment.Refutations),
                    TablePrinter::num(Stats.AnalysisSeconds, 4)});
    }
    std::cout << "\n";
    Grown.print(std::cout);
  }

  std::cout << "\nPaper shape: analysis well under 0.2 s/method.\n";
  return 0;
}
