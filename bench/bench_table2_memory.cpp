//===- bench_table2_memory.cpp - Reproduces Table 2 ---------------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Table 2: the target's base memory, FastTrack's shadow overhead over it,
// and each other checker's shadow footprint relative to FastTrack's.
// (The paper bisects the JVM max-heap; we census live shadow state
// directly — see DESIGN.md.)
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "support/TablePrinter.h"

#include <cmath>
#include <iostream>

using namespace bigfoot;

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  std::vector<ExperimentResult> Results = runSuite(Args.Scale, Args.Opts);

  TablePrinter Table("Table 2: checker space overhead");
  Table.addRow({"Program", "Base(KB)", "FT/Base", "BF/FT", "RC/FT",
                "SS/FT", "SC/FT"});
  std::vector<double> BfR, RcR, SsR, ScR;
  for (const ExperimentResult &R : Results) {
    double Base = static_cast<double>(R.BaseHeapBytes);
    // Detector metadata is shadow state only, as in the paper's heap
    // measurement.
    auto MetaBytes = [&R](const char *Tool) {
      return R.tool(Tool).PeakShadowBytes;
    };
    double Ft = static_cast<double>(MetaBytes("fasttrack"));
    auto Rel = [Ft](uint64_t Bytes) {
      return Ft > 0 ? static_cast<double>(Bytes) / Ft : 1.0;
    };
    double Bf = Rel(MetaBytes("bigfoot"));
    double Rc = Rel(MetaBytes("redcard"));
    double Ss = Rel(MetaBytes("slimstate"));
    double Sc = Rel(MetaBytes("slimcard"));
    Table.addRow({R.Workload, TablePrinter::num(Base / 1024.0, 1),
                  TablePrinter::num(Base > 0 ? Ft / Base : 0, 2),
                  TablePrinter::ratio(Bf), TablePrinter::ratio(Rc),
                  TablePrinter::ratio(Ss), TablePrinter::ratio(Sc)});
    BfR.push_back(Bf);
    RcR.push_back(Rc);
    SsR.push_back(Ss);
    ScR.push_back(Sc);
  }
  auto Geo = [](const std::vector<double> &V) {
    double L = 0;
    for (double X : V)
      L += std::log(X > 1e-6 ? X : 1e-6);
    return std::exp(L / static_cast<double>(V.size()));
  };
  Table.addRow({"GeoMean", "", "", TablePrinter::ratio(Geo(BfR)),
                TablePrinter::ratio(Geo(RcR)), TablePrinter::ratio(Geo(SsR)),
                TablePrinter::ratio(Geo(ScR))});
  Table.print(std::cout);
  std::cout << "\nPaper shape: BF/SS/SC save ~26-28% of FastTrack's shadow "
               "space (geomean ~0.73);\nRedCard saves little (~0.99).\n";
  return 0;
}
