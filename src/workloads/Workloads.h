//===- Workloads.h - The benchmark workload suite ---------------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Nineteen multithreaded BFJ programs named after the paper's JavaGrande
/// and DaCapo benchmarks. Each reproduces the *access-pattern shape* that
/// drives that program's behaviour in Table 1 — dense block sweeps
/// (crypt), compute-dominated (series), triangular updates (lufact),
/// barrier-phased stencils (sor, moldyn), indirect indexing (sparse,
/// jython, fop), field-group-heavy rendering (raytracer, sunflow),
/// lock-dominated servers (tomcat, xalan, h2), pointer chasing (pmd), and
/// so on. See DESIGN.md for the substitution rationale.
///
/// Every workload is race free (the suite models the paper's fixed
/// benchmarks) and self-validates with assert statements. Racy variants
/// for detection tests live behind racyVariants().
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_WORKLOADS_WORKLOADS_H
#define BIGFOOT_WORKLOADS_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace bigfoot {

/// One named benchmark program.
struct Workload {
  std::string Name;
  std::string Description;
  std::string Source; ///< Complete BFJ source at the chosen scale.
};

/// Problem sizes: Test keeps unit tests fast; Bench matches the paper's
/// relative workload weights.
enum class SuiteScale { Test, Bench };

/// The full 19-program suite in the paper's Table 1 order.
std::vector<Workload> standardSuite(SuiteScale Scale);

/// One suite program by name; aborts on unknown names.
Workload workloadByName(const std::string &Name, SuiteScale Scale);

/// Deliberately racy programs (used to validate that all detectors report
/// the same races, Section 6).
std::vector<Workload> racyVariants();

/// A program whose one method has \p Blocks blocks drawn with \p Seed
/// (counted array loops, stride-2 loops, lock-guarded field updates,
/// if/else and field reads), to show how placement grows with the size of
/// a method; bench_staticbf_scaling --sizes places it. Each block has its
/// own locals, so the facts of finished blocks stay in the history the
/// later ones are placed in, as in a long method of real code.
std::string generatedMethodProgram(unsigned Blocks, uint64_t Seed);

} // namespace bigfoot

#endif // BIGFOOT_WORKLOADS_WORKLOADS_H
