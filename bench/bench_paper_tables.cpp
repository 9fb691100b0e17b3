//===- bench_paper_tables.cpp - Figure 2, Table 1, Figure 8 and Table 2 -----===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// The paper's evaluation is one experiment read four ways. This runs the
// suite once and prints all four from that one set of results:
//
//   Figure 2: the feature matrix of the five detectors (plus DJIT+) and
//     their mean overheads (paper: FT 7.3x, RC 6.0x, SS 6.0x, SC 5.1x,
//     BF 2.5x on the authors' testbed; here the shape — strict ordering
//     with BF well ahead — is the reproduced claim).
//   Table 1: per program — methods optimized, StaticBF time, BigFoot
//     check ratio, base time, each checker's overhead and BigFoot's
//     relative to FastTrack's.
//   Figure 8: the FastTrack and BigFoot check ratios split into array
//     and field components, and BigFoot's overhead relative to
//     FastTrack's.
//   Table 2: the target's base memory, FastTrack's shadow overhead over
//     it, and each other checker's shadow footprint relative to
//     FastTrack's. (The paper bisects the JVM max-heap; we census live
//     shadow state directly — see DESIGN.md.)
//
// Means follow the paper: arithmetic for StaticBF time and check ratios,
// geometric for overheads and space ratios. A mean overhead is
// meanOverhead's (the geomean of the slowdowns, minus 1), and the suite's
// BF/FT is one value, printed in Figure 2, Table 1 and Figure 8.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "support/TablePrinter.h"

#include <iostream>

using namespace bigfoot;

namespace {

using Suite = std::vector<ExperimentResult>;

/// \p Tool's mean overhead over the suite.
double meanOverheadOf(const Suite &Results, const char *Tool) {
  std::vector<double> Overheads;
  for (const ExperimentResult &R : Results)
    Overheads.push_back(R.tool(Tool).OverheadX);
  return meanOverhead(Overheads);
}

void printFigure2(const Suite &Results, double FtMean) {
  // The paper's five tools plus DJIT+ as an extra historical baseline
  // (Figure 2 lists FastTrack as the starting point; DJIT+ is what
  // FastTrack's epochs optimized).
  const char *Tools[] = {"djit",      "fasttrack", "redcard",
                         "slimstate", "slimcard",  "bigfoot"};
  const char *Motion[] = {"no",
                          "no",
                          "no",
                          "dynamic(arrays)",
                          "dynamic(arrays)",
                          "static+dynamic"};
  const char *Redundant[] = {"no", "no",     "static",
                             "no", "static", "static, better"};
  const char *Compression[] = {"no (full VCs)", "no",
                               "field proxies", "dynamic arrays",
                               "proxies+dynamic", "proxies+dynamic"};

  TablePrinter Table("Figure 2: detector comparison");
  Table.addRow({"Detector", "Check motion/coalescing", "Red. elim.",
                "Metadata compression", "Mean overhead", "vs FT"});
  for (int T = 0; T < 6; ++T) {
    double Mean = meanOverheadOf(Results, Tools[T]);
    Table.addRow({Tools[T], Motion[T], Redundant[T], Compression[T],
                  TablePrinter::num(Mean, 2) + "x",
                  TablePrinter::ratio(relativeOverhead(Mean, FtMean))});
  }
  Table.print(std::cout);
  std::cout << "\nPaper values on the authors' JVM testbed: 7.3x / 6.0x / "
               "6.0x / 5.1x / 2.5x.\nThe reproduced claim is the ordering "
               "and BigFoot's large relative advantage.\n";
}

void printTable1(const Suite &Results, double BfOverFt) {
  TablePrinter Table("Table 1: checker performance");
  Table.addRow({"Program", "Methods", "Static(s)", "BF CheckRatio",
                "Base(s)", "FT(x)", "RC(x)", "SS(x)", "SC(x)", "BF(x)",
                "BF/FT"});
  double MeanRatio = 0, MeanStatic = 0;
  for (const ExperimentResult &R : Results) {
    const ToolMetrics &Ft = R.tool("fasttrack");
    const ToolMetrics &Bf = R.tool("bigfoot");
    Table.addRow({R.Workload, std::to_string(R.MethodsProcessed),
                  TablePrinter::num(R.StaticSeconds, 3),
                  TablePrinter::num(Bf.CheckRatio, 2),
                  TablePrinter::num(R.BaseSeconds, 3),
                  TablePrinter::num(Ft.OverheadX, 2),
                  TablePrinter::num(R.tool("redcard").OverheadX, 2),
                  TablePrinter::num(R.tool("slimstate").OverheadX, 2),
                  TablePrinter::num(R.tool("slimcard").OverheadX, 2),
                  TablePrinter::num(Bf.OverheadX, 2),
                  TablePrinter::ratio(
                      relativeOverhead(Bf.OverheadX, Ft.OverheadX))});
    MeanRatio += Bf.CheckRatio;
    MeanStatic += R.StaticSeconds;
  }
  MeanRatio /= static_cast<double>(Results.size());
  MeanStatic /= static_cast<double>(Results.size());
  std::vector<std::string> Mean = {"Mean", "",
                                   TablePrinter::num(MeanStatic, 3),
                                   TablePrinter::num(MeanRatio, 2), ""};
  for (const char *Tool :
       {"fasttrack", "redcard", "slimstate", "slimcard", "bigfoot"})
    Mean.push_back(TablePrinter::num(meanOverheadOf(Results, Tool), 2));
  Mean.push_back(TablePrinter::ratio(BfOverFt));
  Table.addRow(Mean);
  Table.print(std::cout);
  std::cout << "\nPaper shape: mean BF check ratio ~0.43; overhead order "
               "FT >= RC ~ SS >= SC > BF;\nBF at a fraction of FT's "
               "overhead (paper: 0.39 of FT).\n";
}

void printFigure8(const Suite &Results, double BfOverFt) {
  TablePrinter Table("Figure 8: check ratios and relative overhead");
  Table.addRow({"Program", "FT arrays", "FT fields", "FT total",
                "BF arrays", "BF fields", "BF total", "BF/FT overhead"});
  double SumFt = 0, SumBf = 0;
  for (const ExperimentResult &R : Results) {
    const ToolMetrics &Ft = R.tool("fasttrack");
    const ToolMetrics &Bf = R.tool("bigfoot");
    Table.addRow({R.Workload, TablePrinter::num(Ft.ArrayCheckRatio, 2),
                  TablePrinter::num(Ft.FieldCheckRatio, 2),
                  TablePrinter::num(Ft.CheckRatio, 2),
                  TablePrinter::num(Bf.ArrayCheckRatio, 2),
                  TablePrinter::num(Bf.FieldCheckRatio, 2),
                  TablePrinter::num(Bf.CheckRatio, 2),
                  TablePrinter::num(
                      relativeOverhead(Bf.OverheadX, Ft.OverheadX), 2)});
    SumFt += Ft.CheckRatio;
    SumBf += Bf.CheckRatio;
  }
  double N = static_cast<double>(Results.size());
  Table.addRow({"Mean", "", "", TablePrinter::num(SumFt / N, 2), "", "",
                TablePrinter::num(SumBf / N, 2),
                TablePrinter::num(BfOverFt, 2)});
  Table.print(std::cout);
  std::cout << "\nPaper shape: FT total is always 1.00; BF mean ~0.43 "
               "with near-zero ratios for\nstructured array programs "
               "(crypt, montecarlo, sor) and high ratios for irregular\n"
               "ones (jython, h2).\n";
}

void printTable2(const Suite &Results) {
  TablePrinter Table("Table 2: checker space overhead");
  Table.addRow({"Program", "Base(KB)", "FT/Base", "BF/FT", "RC/FT",
                "SS/FT", "SC/FT"});
  const char *Tools[] = {"bigfoot", "redcard", "slimstate", "slimcard"};
  std::vector<double> Ratios[4];
  for (const ExperimentResult &R : Results) {
    double Base = static_cast<double>(R.BaseHeapBytes);
    // Detector metadata is shadow state only, as in the paper's heap
    // measurement.
    double Ft = static_cast<double>(R.tool("fasttrack").PeakShadowBytes);
    std::vector<std::string> Row = {
        R.Workload, TablePrinter::num(Base / 1024.0, 1),
        TablePrinter::num(Base > 0 ? Ft / Base : 0, 2)};
    for (int T = 0; T < 4; ++T) {
      double Bytes = static_cast<double>(R.tool(Tools[T]).PeakShadowBytes);
      Ratios[T].push_back(Ft > 0 ? Bytes / Ft : 1.0);
      Row.push_back(TablePrinter::ratio(Ratios[T].back()));
    }
    Table.addRow(Row);
  }
  std::vector<std::string> Mean = {"GeoMean", "", ""};
  for (const std::vector<double> &V : Ratios)
    Mean.push_back(TablePrinter::ratio(geomean(V)));
  Table.addRow(Mean);
  Table.print(std::cout);
  std::cout << "\nPaper shape: BF/SS/SC save ~26-28% of FastTrack's shadow "
               "space (geomean ~0.73);\nRedCard saves little (~0.99).\n";
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  Suite Results = runSuite(Args.Scale, Args.Opts);
  double FtMean = meanOverheadOf(Results, "fasttrack");
  double BfOverFt =
      relativeOverhead(meanOverheadOf(Results, "bigfoot"), FtMean);
  printFigure2(Results, FtMean);
  printTable1(Results, BfOverFt);
  printFigure8(Results, BfOverFt);
  printTable2(Results);
  return 0;
}
