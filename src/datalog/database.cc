#include "datalog/database.h"

#include <algorithm>

#include "common/logging.h"

namespace dqsq {

Relation& Database::GetOrCreate(const RelId& rel) {
  auto it = relations_.find(rel);
  if (it != relations_.end()) return it->second;
  uint32_t arity = ctx_->PredicateArity(rel.pred);
  return relations_.emplace(rel, Relation(arity)).first->second;
}

const Relation* Database::Find(const RelId& rel) const {
  auto it = relations_.find(rel);
  return it == relations_.end() ? nullptr : &it->second;
}

Relation* Database::FindMutable(const RelId& rel) {
  auto it = relations_.find(rel);
  return it == relations_.end() ? nullptr : &it->second;
}

bool Database::Insert(const RelId& rel, std::span<const TermId> tuple) {
  return GetOrCreate(rel).Insert(tuple);
}

void Database::InsertByName(std::string_view pred,
                            const std::vector<std::string>& constants) {
  PredicateId pid = ctx_->InternPredicate(
      pred, static_cast<uint32_t>(constants.size()));
  std::vector<TermId> tuple;
  tuple.reserve(constants.size());
  for (const std::string& c : constants) tuple.push_back(ctx_->Constant(c));
  Insert(RelId{pid, ctx_->local_peer()}, tuple);
}

size_t Database::TotalFacts() const {
  size_t total = 0;
  for (const auto& [rel, relation] : relations_) total += relation.size();
  return total;
}

size_t Database::CountFactsMatching(
    const std::function<bool(const std::string&)>& filter) const {
  size_t total = 0;
  for (const auto& [rel, relation] : relations_) {
    if (filter(ctx_->PredicateName(rel.pred))) total += relation.size();
  }
  return total;
}

std::vector<RelId> Database::Relations() const {
  std::vector<RelId> out;
  out.reserve(relations_.size());
  for (const auto& [rel, relation] : relations_) out.push_back(rel);
  return out;
}

std::string Database::Dump() const {
  std::vector<std::string> lines;
  for (const auto& [rel, relation] : relations_) {
    std::string prefix = ctx_->PredicateName(rel.pred);
    if (rel.peer != ctx_->local_peer()) {
      prefix += "@" + ctx_->symbols().Name(rel.peer);
    }
    for (size_t i = 0; i < relation.size(); ++i) {
      std::string line = prefix + "(";
      for (uint32_t c = 0; c < relation.arity(); ++c) {
        if (c > 0) line += ",";
        line += ctx_->arena().ToString(relation.At(i, c), ctx_->symbols());
      }
      line += ")";
      lines.push_back(std::move(line));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += "\n";
  }
  return out;
}

}  // namespace dqsq
