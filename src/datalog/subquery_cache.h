// Cross-query subquery memoization. QSQ's win (paper §3.1/§3.2) is that a
// subquery posed twice is answered from the materialization the first call
// left behind — but that reuse is scoped to one database. SubqueryCache
// lifts it across databases: a byte-budgeted LRU map from a canonical
// subquery key (caller-defined; the diagnosis service keys on the
// per-peer observation prefix, which fully determines the versioned
// query's answers) to an opaque serialized answer blob. Sessions sharing
// one cache therefore share each other's demand-driven work — the
// memoization the paper sets up per query, made cross-session.
//
// Single-threaded like the rest of the evaluation core; the hit/miss/
// eviction tallies are published to the global metrics registry under
// `datalog.subcache.*` at the end of every Get and Put.
#ifndef DQSQ_DATALOG_SUBQUERY_CACHE_H_
#define DQSQ_DATALOG_SUBQUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "common/metrics.h"

namespace dqsq {

struct SubqueryCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t insertions = 0;
  size_t evictions = 0;
  size_t oversize_rejects = 0;
};

class SubqueryCache {
 public:
  /// `capacity_bytes` bounds the resident total of key + value bytes;
  /// least-recently-used entries are evicted to stay under it. 0 disables
  /// caching entirely (every Get misses, Put is a no-op).
  explicit SubqueryCache(size_t capacity_bytes);

  SubqueryCache(const SubqueryCache&) = delete;
  SubqueryCache& operator=(const SubqueryCache&) = delete;

  /// Looks `key` up; on hit copies the cached blob into `*value` (if
  /// non-null), marks the entry most-recently-used and returns true.
  bool Get(const std::string& key, std::string* value);

  /// Inserts or replaces `key`, then evicts LRU entries until the byte
  /// budget holds again. An entry larger than the whole budget is not
  /// admitted.
  void Put(const std::string& key, std::string value);

  size_t entries() const { return index_.size(); }
  size_t bytes() const { return bytes_; }
  size_t capacity_bytes() const { return capacity_bytes_; }
  uint64_t hits() const { return stats_.hits; }
  uint64_t misses() const { return stats_.misses; }
  uint64_t evictions() const { return stats_.evictions; }
  /// Puts whose entry alone exceeded the whole budget. A fresh key is
  /// dropped without touching resident entries; an update of an existing
  /// key is applied, then evicted by the budget sweep (both count here).
  uint64_t oversize_rejects() const { return stats_.oversize_rejects; }

 private:
  struct Entry {
    std::string key;
    std::string value;
  };

  void EvictToBudget();

  size_t capacity_bytes_;
  size_t bytes_ = 0;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  SubqueryCacheStats stats_;
  StatsPublisher<SubqueryCacheStats> counters_;
};

}  // namespace dqsq

#endif  // DQSQ_DATALOG_SUBQUERY_CACHE_H_
