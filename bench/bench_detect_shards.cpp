//===- bench_detect_shards.cpp - Sharded parallel detection scaling ----------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// Measures what location-partitioned detector sharding (DESIGN.md
// Sec. 12) buys end to end. Each suite workload runs under the FastTrack
// placement (the densest event stream, so detection-heavy by
// construction) in these configurations, best-of-N wall-clock each:
//
//   sync      detector inline with execution — the reference;
//   async     the single-thread pipeline (VmOptions::AsyncDetect), the
//             fair baseline sharding must beat: it already overlaps
//             detection with execution, sharding adds lane parallelism;
//   shards=K  K location-partitioned detector workers, K in {1,2,4,8},
//             with the vm/detector split and backpressure stalls of the
//             best run per K.
//
// Each sync edge applies once to the shared SyncClockTable (DESIGN.md
// Sec. 13), so lanes receive one delivery per emitted event. The speedup
// headline divides the detection-heavy sync time by the best sharded
// time; a workload is
// detection-heavy when the async run's detector busy time is at least
// 25% of the sync wall-clock, exactly like bench_async_pipeline.
//
// Rows whose sync run is under the 5 ms timing floor are emitted with
// "skipped": true and excluded from every geomean — a microsecond-scale
// run times scheduler jitter, not detection. With one core there is no
// lane parallelism to buy ("serialization_floor": true in the JSON);
// only multi-core runners show sharding's real effect.
//
// Emits BENCH_detect_shards.json, stamped via BenchMeta.h.
//
//===----------------------------------------------------------------------===//

#include "BenchMeta.h"
#include "bfj/Parser.h"
#include "harness/Experiment.h"
#include "instrument/Instrumenters.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"
#include "vm/Vm.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

using namespace bigfoot;

namespace {

constexpr size_t kShardCounts[] = {1, 2, 4, 8};
constexpr size_t kNumShardCounts = sizeof(kShardCounts) / sizeof(size_t);
/// Below this sync wall-clock the row times noise, not detection.
constexpr double kMinTimedSeconds = 0.005;

struct ShardLeg {
  double WallS = 0;    ///< Best-of-N end-to-end.
  double VmS = 0;      ///< Producer side of the best run.
  double DetS = 0;     ///< Slowest lane's busy time in the best run.
  uint64_t Stalls = 0; ///< Backpressure stalls, summed over lanes.
};

struct ShardRow {
  std::string Workload;
  bool Skipped = false; ///< Sync run under the timing floor.
  double SyncS = 0;
  double AsyncS = 0;
  double AsyncDetS = 0; ///< Detector busy time of the best async run.
  ShardLeg Legs[kNumShardCounts];
  bool DetectionHeavy = false;

  double speedupAt(size_t I) const {
    return Legs[I].WallS > 0 ? SyncS / Legs[I].WallS : 0;
  }
  double bestSpeedup() const {
    double Best = 0;
    for (size_t I = 0; I < kNumShardCounts; ++I)
      Best = std::max(Best, speedupAt(I));
    return Best;
  }
};

ShardRow measureWorkload(const Workload &W, const BenchArgs &Args) {
  ParseResult PR = parseProgram(W.Source);
  if (!PR.ok()) {
    std::fprintf(stderr, "workload %s failed to parse: %s\n", W.Name.c_str(),
                 PR.Error.c_str());
    std::abort();
  }
  InstrumentedProgram IP = instrumentFastTrack(*PR.Prog);
  IP.Prog->internSymbols();

  ShardRow Row;
  Row.Workload = W.Name;
  // Single-rep comparisons are noise; min-of-3 at least, more if --iters
  // asks for it (matching bench_async_pipeline).
  int Iters = std::max(3, Args.Opts.Iterations > 0 ? Args.Opts.Iterations : 1);

  VmOptions Sync;
  Sync.Seed = Args.Opts.Seed;
  for (int I = 0; I < Iters; ++I) {
    Timer T;
    VmResult R = runProgram(*IP.Prog, IP.Tool, Sync);
    double Sec = T.seconds();
    if (!R.Ok) {
      std::fprintf(stderr, "workload %s failed: %s\n", W.Name.c_str(),
                   R.Error.c_str());
      std::abort();
    }
    if (Row.SyncS == 0 || Sec < Row.SyncS)
      Row.SyncS = Sec;
  }
  if (Row.SyncS < kMinTimedSeconds) {
    // Too small to time: emit the row (so coverage is visible) but skip
    // the sharded legs — their numbers would be scheduler jitter.
    Row.Skipped = true;
    return Row;
  }

  VmOptions Async = Sync;
  Async.AsyncDetect = true;
  for (int I = 0; I < Iters; ++I) {
    Timer T;
    VmResult R = runProgram(*IP.Prog, IP.Tool, Async);
    double Sec = T.seconds();
    if (!R.Ok) {
      std::fprintf(stderr, "workload %s async failed: %s\n", W.Name.c_str(),
                   R.Error.c_str());
      std::abort();
    }
    if (Row.AsyncS == 0 || Sec < Row.AsyncS) {
      Row.AsyncS = Sec;
      Row.AsyncDetS = R.DetectorSeconds;
    }
  }
  Row.DetectionHeavy = Row.AsyncDetS / Row.SyncS >= 0.25;

  for (size_t S = 0; S < kNumShardCounts; ++S) {
    VmOptions Sharded = Sync;
    Sharded.DetectShards = kShardCounts[S];
    ShardLeg &Leg = Row.Legs[S];
    for (int I = 0; I < Iters; ++I) {
      Timer T;
      VmResult R = runProgram(*IP.Prog, IP.Tool, Sharded);
      double Sec = T.seconds();
      if (!R.Ok) {
        std::fprintf(stderr, "workload %s shards=%zu failed: %s\n",
                     W.Name.c_str(), kShardCounts[S], R.Error.c_str());
        std::abort();
      }
      if (Leg.WallS == 0 || Sec < Leg.WallS) {
        Leg.WallS = Sec;
        Leg.VmS = R.VmSeconds;
        Leg.DetS = R.DetectorSeconds;
        Leg.Stalls = R.AsyncStalls;
      }
    }
  }
  return Row;
}

double geomeanOf(const std::vector<double> &Vals) {
  if (Vals.empty())
    return 0;
  double LogSum = 0;
  for (double V : Vals)
    LogSum += std::log(V > 1e-9 ? V : 1e-9);
  return std::exp(LogSum / static_cast<double>(Vals.size()));
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  unsigned Cores = std::thread::hardware_concurrency();

  std::vector<ShardRow> Rows;
  for (const Workload &W : standardSuite(Args.Scale))
    Rows.push_back(measureWorkload(W, Args));

  TablePrinter Table("Sharded detection: end-to-end seconds by shard count");
  Table.addRow({"Program", "Sync", "Async", "S1", "S2", "S4", "S8",
                "BestX", "Stall8"});
  std::vector<double> HeavySpeedups[kNumShardCounts], HeavyBest;
  for (const ShardRow &R : Rows) {
    if (R.Skipped) {
      Table.addRow({R.Workload, TablePrinter::num(R.SyncS, 4), "-", "-", "-",
                    "-", "-", "skip", "-"});
      continue;
    }
    Table.addRow(
        {R.Workload, TablePrinter::num(R.SyncS, 4),
         TablePrinter::num(R.AsyncS, 4), TablePrinter::num(R.Legs[0].WallS, 4),
         TablePrinter::num(R.Legs[1].WallS, 4),
         TablePrinter::num(R.Legs[2].WallS, 4),
         TablePrinter::num(R.Legs[3].WallS, 4),
         TablePrinter::num(R.bestSpeedup(), 2) + (R.DetectionHeavy ? "" : "*"),
         std::to_string(R.Legs[3].Stalls)});
    if (R.DetectionHeavy) {
      for (size_t S = 0; S < kNumShardCounts; ++S)
        if (R.speedupAt(S) > 0)
          HeavySpeedups[S].push_back(R.speedupAt(S));
      if (R.bestSpeedup() > 0)
        HeavyBest.push_back(R.bestSpeedup());
    }
  }
  double GeoBest = geomeanOf(HeavyBest);
  Table.addRow({"GeoMean(heavy)", "", "",
                TablePrinter::num(geomeanOf(HeavySpeedups[0]), 2),
                TablePrinter::num(geomeanOf(HeavySpeedups[1]), 2),
                TablePrinter::num(geomeanOf(HeavySpeedups[2]), 2),
                TablePrinter::num(geomeanOf(HeavySpeedups[3]), 2),
                TablePrinter::num(GeoBest, 2), ""});
  Table.print(std::cout);
  std::cout << "(* = not detection-heavy: async detector busy time < 25% of "
               "the sync run; excluded from the geomeans. skip = sync run "
               "under the 5 ms timing floor. cores="
            << Cores << ")\n";

  std::string Json = "{\"bench\":\"detect_shards\"," + benchMetaJson() +
                     ",\"unit\":\"seconds\",\"cores\":" +
                     std::to_string(Cores) +
                     // One core serializes the lanes onto one CPU:
                     // ~1.0x (or below: routing overhead) is the
                     // structural floor, not a sharding regression.
                     ",\"serialization_floor\":" +
                     (Cores == 1 ? "true" : "false") + ",\"workloads\":{";
  bool First = true;
  for (const ShardRow &R : Rows) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\"%s\":{\"skipped\":%s,\"sync_s\":%.6f", First ? "" : ",",
                  R.Workload.c_str(), R.Skipped ? "true" : "false", R.SyncS);
    Json += Buf;
    if (!R.Skipped) {
      std::snprintf(Buf, sizeof(Buf),
                    ",\"async_s\":%.6f,\"async_det_s\":%.6f,"
                    "\"detection_heavy\":%s,\"best_speedup\":%.3f,"
                    "\"shards\":{",
                    R.AsyncS, R.AsyncDetS, R.DetectionHeavy ? "true" : "false",
                    R.bestSpeedup());
      Json += Buf;
      for (size_t S = 0; S < kNumShardCounts; ++S) {
        const ShardLeg &L = R.Legs[S];
        std::snprintf(Buf, sizeof(Buf),
                      "%s\"%zu\":{\"wall_s\":%.6f,\"vm_s\":%.6f,"
                      "\"det_s\":%.6f,\"stalls\":%llu,\"speedup\":%.3f}",
                      S ? "," : "", kShardCounts[S], L.WallS, L.VmS, L.DetS,
                      static_cast<unsigned long long>(L.Stalls),
                      R.speedupAt(S));
        Json += Buf;
      }
      Json += "}";
    }
    Json += "}";
    First = false;
  }
  char Tail[256];
  std::snprintf(Tail, sizeof(Tail),
                "},\"geomean_speedup_heavy\":{\"1\":%.3f,\"2\":%.3f,"
                "\"4\":%.3f,\"8\":%.3f,\"best\":%.3f}}",
                geomeanOf(HeavySpeedups[0]), geomeanOf(HeavySpeedups[1]),
                geomeanOf(HeavySpeedups[2]), geomeanOf(HeavySpeedups[3]),
                GeoBest);
  Json += Tail;

  std::FILE *Out = std::fopen("BENCH_detect_shards.json", "w");
  if (Out) {
    std::fprintf(Out, "%s\n", Json.c_str());
    std::fclose(Out);
  }
  std::cout << "\n" << Json << "\n";
  return 0;
}
