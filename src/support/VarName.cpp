//===- VarName.cpp - Interned variable names for StaticBF -----------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "support/VarName.h"

#include <algorithm>
#include <charconv>
#include <deque>
#include <mutex>
#include <unordered_map>

using namespace bigfoot;

namespace {

constexpr std::string_view kConstPrefix = "#const:";

VarName::Entry makeEntry(std::string_view Name) {
  VarName::Entry E;
  E.Name = Name;
  if (Name.substr(0, kConstPrefix.size()) == kConstPrefix) {
    std::string_view Digits = Name.substr(kConstPrefix.size());
    int64_t Value = 0;
    auto [End, Err] =
        std::from_chars(Digits.data(), Digits.data() + Digits.size(), Value);
    if (Err == std::errc() && End == Digits.data() + Digits.size())
      E.Value = Value;
  }
  return E;
}

/// The process-wide name table. Entries live in a deque, which never moves
/// an element once it is added.
class NameTable {
public:
  const VarName::Entry *get(std::string_view Name) {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Index.find(Name);
    if (It != Index.end())
      return It->second;
    const VarName::Entry &E = Entries.emplace_back(makeEntry(Name));
    Index.emplace(E.Name, &E);
    return &E;
  }

private:
  std::mutex Mutex;
  std::deque<VarName::Entry> Entries;
  /// Keys view the names stored in Entries.
  std::unordered_map<std::string_view, const VarName::Entry *> Index;
};

NameTable &table() {
  // Never destroyed: handles stay valid during static destruction.
  static NameTable *Table = new NameTable;
  return *Table;
}

} // namespace

VarName VarName::intern(std::string_view Name) {
  return VarName(table().get(Name));
}

VarName VarName::constant(int64_t Value) {
  char Buf[kConstPrefix.size() + 24];
  std::copy(kConstPrefix.begin(), kConstPrefix.end(), Buf);
  char *End = std::to_chars(Buf + kConstPrefix.size(), Buf + sizeof(Buf),
                            Value)
                  .ptr;
  return intern(std::string_view(Buf, static_cast<size_t>(End - Buf)));
}
