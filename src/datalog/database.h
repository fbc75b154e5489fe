// A database maps relation instances (R@p) to their extents. Both the
// extensional input and every fact derived during evaluation live here;
// per-relation fact counts are the "materialized data" measure the paper's
// optimization claims are about.
#ifndef DQSQ_DATALOG_DATABASE_H_
#define DQSQ_DATALOG_DATABASE_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "datalog/ast.h"
#include "datalog/relation.h"

namespace dqsq {

class Database {
 public:
  explicit Database(DatalogContext* ctx) : ctx_(ctx) {}
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  DatalogContext& ctx() { return *ctx_; }
  const DatalogContext& ctx() const { return *ctx_; }

  /// The relation for `rel`, created empty on first access.
  Relation& GetOrCreate(const RelId& rel);

  /// The relation for `rel`, or nullptr if never created.
  const Relation* Find(const RelId& rel) const;
  Relation* FindMutable(const RelId& rel);

  /// Inserts a ground fact. Returns true if new.
  bool Insert(const RelId& rel, std::span<const TermId> tuple);

  /// Convenience: inserts R@local(constants...) by name, interning symbols.
  void InsertByName(std::string_view pred,
                    const std::vector<std::string>& constants);

  /// Total facts across all relations.
  size_t TotalFacts() const;

  /// Facts in relations whose predicate-name passes `filter` (empty name
  /// filter counts everything). Used for materialization accounting.
  size_t CountFactsMatching(
      const std::function<bool(const std::string&)>& filter) const;

  /// All relation instances present.
  std::vector<RelId> Relations() const;

  /// Drops every relation (crash-restart support: the database is rebuilt
  /// from a snapshot via GetOrCreate + Insert in stored row order).
  void Clear() { relations_.clear(); }

  /// Multi-line "R@p(c1,c2)" dump, sorted, for tests and debugging.
  std::string Dump() const;

 private:
  DatalogContext* ctx_;
  std::unordered_map<RelId, Relation, RelIdHash> relations_;
};

}  // namespace dqsq

#endif  // DQSQ_DATALOG_DATABASE_H_
