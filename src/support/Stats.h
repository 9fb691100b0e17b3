//===- Stats.h - Named counters ---------------------------------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Simple named counters gathered per run: heap accesses, shadow-location
/// check operations, footprint commits, shadow refinements, and so on. The
/// check ratio of Figure 8 is Counters["shadow.checks"] /
/// Counters["vm.accesses"].
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_SUPPORT_STATS_H
#define BIGFOOT_SUPPORT_STATS_H

#include <cstdint>
#include <map>
#include <string>

namespace bigfoot {

/// A bag of named monotonically increasing counters.
class Stats {
public:
  void bump(const std::string &Name, uint64_t Delta = 1) {
    Counters[Name] += Delta;
  }

  /// A stable reference to the counter named \p Name, for hot paths that
  /// would otherwise pay a string-keyed map lookup per bump. std::map nodes
  /// never move, so the reference stays valid for the Stats' lifetime.
  uint64_t &slot(const std::string &Name) { return Counters[Name]; }

  /// Records a maximum-style gauge (e.g. peak live shadow locations).
  void gaugeMax(const std::string &Name, uint64_t Value) {
    uint64_t &Slot = Counters[Name];
    if (Value > Slot)
      Slot = Value;
  }

  uint64_t get(const std::string &Name) const {
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0 : It->second;
  }

  void clear() { Counters.clear(); }

  const std::map<std::string, uint64_t> &all() const { return Counters; }

private:
  std::map<std::string, uint64_t> Counters;
};

/// A hot-path counter that resolves its name to a slot on the first bump
/// rather than at construction. Lazy binding matters twice: hot loops skip
/// the per-bump string lookup, and counters that never fire stay out of
/// the stats entirely — exactly the set of names a string-keyed bump at
/// the same call sites would have produced. The lookup sits in a cold,
/// out-of-line bind(), so bump() is a test and an add that inlines at
/// every call site.
class HotCounter {
public:
  HotCounter(Stats &Counters, const char *Name)
      : Counters(Counters), Name(Name) {}

  void bump(uint64_t Delta = 1) {
    if (!Slot)
      bind();
    *Slot += Delta;
  }

private:
  Stats &Counters;
  const char *Name;
  uint64_t *Slot = nullptr;

  [[gnu::cold, gnu::noinline]] void bind() { Slot = &Counters.slot(Name); }
};

} // namespace bigfoot

#endif // BIGFOOT_SUPPORT_STATS_H
