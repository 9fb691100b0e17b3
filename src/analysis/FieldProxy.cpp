//===- FieldProxy.cpp - Static field proxy compression ---------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "analysis/FieldProxy.h"

#include <algorithm>
#include <set>

using namespace bigfoot;

std::map<std::string, std::string>
bigfoot::computeFieldProxies(const Program &P) {
  // For each field, intersect the field sets of every check it appears
  // in. Two fields are mutual proxies when each lies in the other's
  // intersection — i.e. they are always checked together.
  std::map<std::string, std::set<std::string>> CoChecked;
  std::set<std::string> Seen;

  P.forEachStmt([&CoChecked, &Seen](const Stmt *S) {
    const auto *Check = dyn_cast<CheckStmt>(S);
    if (!Check)
      return;
    for (const Path &Pth : Check->paths()) {
      if (!Pth.isField())
        continue;
      std::set<std::string> Group;
      for (VarName F : Pth.Fields)
        Group.insert(F.name());
      for (const std::string &F : Group) {
        Seen.insert(F);
        auto It = CoChecked.find(F);
        if (It == CoChecked.end()) {
          CoChecked.emplace(F, Group);
          continue;
        }
        // Intersect.
        std::set<std::string> Inter;
        std::set_intersection(It->second.begin(), It->second.end(),
                              Group.begin(), Group.end(),
                              std::inserter(Inter, Inter.begin()));
        It->second = std::move(Inter);
      }
    }
  });

  std::map<std::string, std::string> Proxy;
  for (const std::string &F : Seen) {
    const std::set<std::string> &Mine = CoChecked[F];
    // The symmetric group of F: members g with F in CoChecked[g] and
    // CoChecked[g] == Mine (all mutually always-co-checked).
    std::set<std::string> GroupMembers;
    for (const std::string &G : Mine) {
      auto It = CoChecked.find(G);
      if (It != CoChecked.end() && It->second == Mine)
        GroupMembers.insert(G);
    }
    if (GroupMembers.size() <= 1)
      continue; // Singleton groups need no entry.
    if (!GroupMembers.count(F))
      continue;
    Proxy[F] = *GroupMembers.begin();
  }
  return Proxy;
}
