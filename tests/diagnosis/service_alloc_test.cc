// Allocation audit of the diagnosis service's cache-hit path. A hit
// answers an alarm from the shared prefix cache without evaluating, so
// what it allocates is what the service itself spends per alarm. Two
// bounds, on MakePaperNet(true) with more sessions than resident slots:
//
//  * restore hit: the session was hibernated, so Observe wakes it (one
//    copy of its image out of the store; the history is checked in
//    place), hibernates the least-recently-used resident session (one
//    image buffer), builds the prefix key, copies the cached answer bytes
//    into the session and decodes them once for the caller;
//  * resident hit: the same without the wake and the eviction.
//
// Most of either count is the decoded answer handed to the caller (one
// vector per explanation, one string per long event name); the bounds
// leave a few allocations of slack above that for standard-library
// differences.
//
// Note: the counter tracks every allocation in the process, so the test
// binary must stay single-threaded (gtest default).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "diagnosis/service.h"
#include "petri/examples.h"

namespace {
uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dqsq::diagnosis {
namespace {

constexpr uint64_t kMaxRestoreHitAllocs = 24;
constexpr uint64_t kMaxResidentHitAllocs = 16;

const petri::AlarmSequence& Stream() {
  static const petri::AlarmSequence stream = petri::MakeAlarms(
      {{"a", "p2"}, {"b", "p1"}, {"c", "p2"}, {"a", "p2"}, {"c", "p2"}});
  return stream;
}

/// Allocations of one Observe that must be a cache hit; `resident` says
/// whether the session must be resident before the call.
uint64_t HitAllocations(DiagnosisService& service, const std::string& session,
                        const petri::Alarm& alarm, bool resident) {
  EXPECT_EQ(service.is_resident(session), resident) << session;
  const uint64_t hits = service.cache("plant")->hits();
  const uint64_t before = g_allocations;
  uint64_t allocations = 0;
  {
    auto result = service.Observe(session, alarm);
    allocations = g_allocations - before;
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(service.cache("plant")->hits(), hits + 1) << session;
  return allocations;
}

TEST(ServiceAllocTest, RestoreHitObserveIsBounded) {
  ServiceOptions options;
  options.max_resident_sessions = 2;
  DiagnosisService service(options);
  ASSERT_TRUE(
      service.RegisterModel("plant", petri::MakePaperNet(/*with_loop=*/true))
          .ok());
  const std::vector<std::string> sessions = {"leader", "s1", "s2", "s3"};
  for (const std::string& s : sessions) {
    ASSERT_TRUE(service.OpenSession(s, "plant").ok());
  }
  // The leader evaluates every prefix once, filling the cache.
  for (const petri::Alarm& alarm : Stream()) {
    ASSERT_TRUE(service.Observe("leader", alarm).ok());
  }
  // Three followers round-robin over two resident slots: every call wakes
  // a hibernated session and hibernates another.
  uint64_t worst = 0;
  for (const petri::Alarm& alarm : Stream()) {
    for (size_t i = 1; i < sessions.size(); ++i) {
      const uint64_t n = HitAllocations(service, sessions[i], alarm,
                                        /*resident=*/false);
      EXPECT_LE(n, kMaxRestoreHitAllocs) << sessions[i] << " " << alarm.symbol;
      worst = std::max(worst, n);
    }
  }
  RecordProperty("worst_restore_hit_allocations", std::to_string(worst));
}

TEST(ServiceAllocTest, ResidentHitObserveIsBounded) {
  DiagnosisService service;
  ASSERT_TRUE(
      service.RegisterModel("plant", petri::MakePaperNet(/*with_loop=*/true))
          .ok());
  ASSERT_TRUE(service.OpenSession("leader", "plant").ok());
  ASSERT_TRUE(service.OpenSession("follower", "plant").ok());
  for (const petri::Alarm& alarm : Stream()) {
    ASSERT_TRUE(service.Observe("leader", alarm).ok());
  }
  uint64_t worst = 0;
  for (const petri::Alarm& alarm : Stream()) {
    const uint64_t n =
        HitAllocations(service, "follower", alarm, /*resident=*/true);
    EXPECT_LE(n, kMaxResidentHitAllocs) << alarm.symbol;
    worst = std::max(worst, n);
  }
  RecordProperty("worst_resident_hit_allocations", std::to_string(worst));
}

}  // namespace
}  // namespace dqsq::diagnosis
