#include "datalog/subquery_cache.h"

#include <utility>

#include "common/metrics.h"

namespace dqsq {

namespace {

constexpr StatCounter<SubqueryCacheStats> kCacheCounters[] = {
    {"datalog.subcache.hits", "", &SubqueryCacheStats::hits},
    {"datalog.subcache.misses", "", &SubqueryCacheStats::misses},
    {"datalog.subcache.insertions", "", &SubqueryCacheStats::insertions},
    {"datalog.subcache.evictions", "", &SubqueryCacheStats::evictions},
    {"datalog.subcache.oversize_rejects", "",
     &SubqueryCacheStats::oversize_rejects},
};

}  // namespace

SubqueryCache::SubqueryCache(size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes), counters_(kCacheCounters) {}

bool SubqueryCache::Get(const std::string& key, std::string* value) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
  } else {
    lru_.splice(lru_.begin(), lru_, it->second);
    if (value != nullptr) *value = it->second->value;
    ++stats_.hits;
  }
  counters_.Publish(stats_);
  return it != index_.end();
}

void SubqueryCache::Put(const std::string& key, std::string value) {
  const size_t entry_bytes = key.size() + value.size();
  auto it = index_.find(key);
  if (it != index_.end()) {
    // An update that alone busts the budget is applied and then swept out
    // by EvictToBudget (counted as both an eviction and a reject) — the
    // entry must not linger as an unevictable over-budget resident.
    if (entry_bytes > capacity_bytes_) ++stats_.oversize_rejects;
    bytes_ -= it->second->key.size() + it->second->value.size();
    bytes_ += entry_bytes;
    it->second->value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    EvictToBudget();
    counters_.Publish(stats_);
    return;
  }
  if (entry_bytes > capacity_bytes_) {
    // Would evict everything and still not fit: drop the entry, but leave
    // an audit trail — a silent drop reads as a plain miss downstream.
    ++stats_.oversize_rejects;
    counters_.Publish(stats_);
    return;
  }
  lru_.push_front(Entry{key, std::move(value)});
  index_.emplace(key, lru_.begin());
  bytes_ += entry_bytes;
  ++stats_.insertions;
  EvictToBudget();
  counters_.Publish(stats_);
}

void SubqueryCache::EvictToBudget() {
  while (bytes_ > capacity_bytes_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.key.size() + victim.value.size();
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

}  // namespace dqsq
