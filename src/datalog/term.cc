#include "datalog/term.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"

namespace dqsq {

const TermArena::Node& TermArena::node(TermId term) const {
  DQSQ_DCHECK(term < nodes_.size());
  return nodes_[term];
}

uint32_t TermArena::HashApp(SymbolId fn, std::span<const TermId> args) {
  size_t seed = 0x517cc1b727220a95ULL;
  HashCombine(seed, fn);
  for (TermId a : args) HashCombine(seed, a);
  // Fibonacci finish: the slot index takes the low bits of the result.
  return static_cast<uint32_t>((seed * 0x9e3779b97f4a7c15ULL) >> 32);
}

bool TermArena::AppEquals(TermId term, SymbolId fn,
                          std::span<const TermId> args) const {
  const Node& n = node(term);
  if (!n.is_app || n.symbol != fn || n.num_args != args.size()) return false;
  return std::equal(args.begin(), args.end(), args_.begin() + n.first_arg);
}

TermId TermArena::MakeConstant(SymbolId symbol) {
  if (symbol < constants_.size() && constants_[symbol] != kNoTerm) {
    return constants_[symbol];
  }
  if (symbol >= constants_.size()) constants_.resize(symbol + 1, kNoTerm);
  TermId id = static_cast<TermId>(nodes_.size());
  nodes_.push_back(Node{symbol, 0, 0, /*is_app=*/false, /*depth=*/1});
  constants_[symbol] = id;
  return id;
}

TermId TermArena::MakeApp(SymbolId fn, std::span<const TermId> args) {
  if (2 * (num_apps_ + 1) > apps_.size()) GrowApps();
  uint32_t hash = HashApp(fn, args);
  size_t mask = apps_.size() - 1;
  size_t i = hash & mask;
  for (; apps_[i].id != kNoTerm; i = (i + 1) & mask) {
    if (apps_[i].hash == hash && AppEquals(apps_[i].id, fn, args)) {
      return apps_[i].id;
    }
  }
  uint32_t depth = 1;
  for (TermId a : args) depth = std::max(depth, node(a).depth + 1);
  TermId id = static_cast<TermId>(nodes_.size());
  uint32_t first = static_cast<uint32_t>(args_.size());
  args_.insert(args_.end(), args.begin(), args.end());
  nodes_.push_back(Node{fn, first, static_cast<uint16_t>(args.size()),
                        /*is_app=*/true, depth});
  apps_[i] = Slot{id, hash};
  ++num_apps_;
  return id;
}

void TermArena::GrowApps() {
  std::vector<Slot> old = std::move(apps_);
  apps_.assign(old.empty() ? 64 : 2 * old.size(), Slot{});
  size_t mask = apps_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kNoTerm) continue;
    size_t i = slot.hash & mask;
    while (apps_[i].id != kNoTerm) i = (i + 1) & mask;
    apps_[i] = slot;
  }
}

std::span<const TermId> TermArena::Args(TermId term) const {
  const Node& n = node(term);
  return {args_.data() + n.first_arg, n.num_args};
}

std::string TermArena::ToString(TermId term, const SymbolTable& symbols) const {
  const Node& n = node(term);
  std::string out = symbols.Name(n.symbol);
  if (n.is_app) {
    out += "(";
    auto args = Args(term);
    for (size_t i = 0; i < args.size(); ++i) {
      if (i > 0) out += ",";
      out += ToString(args[i], symbols);
    }
    out += ")";
  }
  return out;
}

}  // namespace dqsq
