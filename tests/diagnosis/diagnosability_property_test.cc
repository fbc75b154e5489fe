// The E6 correctness story as a property suite: over a 50-seed sweep of
// random nets the twin-plant Datalog verdict (semi-naive AND QSQ) must
// equal the brute-force oracle's, every "not diagnosable" verdict must
// ship a witness that replays through the token game, and the distributed
// engines must reproduce the central anchor sets.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "diagnosis/diagnosability.h"
#include "petri/net.h"
#include "petri/random_net.h"
#include "petri/verifier.h"

namespace dqsq::diagnosis {
namespace {

using petri::PetriNet;

constexpr uint64_t kNumSeeds = 50;

/// Generator parameters vary with the seed so the sweep crosses the
/// diagnosable/undiagnosable boundary: a third of the seeds draw no
/// faults at all (trivially diagnosable), the rest sweep fault density
/// and hidden-transition density upward.
PetriNet NetForSeed(uint64_t seed) {
  petri::RandomNetOptions options;
  options.num_peers = 2 + static_cast<uint32_t>(seed % 2);
  options.places_per_peer = 3;
  options.transitions_per_peer = 3 + static_cast<uint32_t>(seed % 3);
  options.sync_probability = 0.3;
  options.num_alarm_symbols = 1 + static_cast<uint32_t>(seed % 3);
  options.hidden_probability = (seed % 3 == 0) ? 0.2 : 0.4;
  options.fault_fraction = (seed % 3 == 0)   ? 0.0
                           : (seed % 3 == 1) ? 0.25
                                             : 0.5;
  Rng rng(seed);
  return petri::MakeRandomNet(options, rng);
}

TEST(DiagnosabilityPropertyTest, DatalogVerdictMatchesOracleOver50Seeds) {
  size_t undiagnosable = 0;
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    PetriNet net = NetForSeed(seed);

    DiagnosabilityOptions options;
    options.engine = DiagnosabilityEngine::kReference;
    auto oracle = CheckDiagnosability(net, options);
    ASSERT_TRUE(oracle.ok()) << "seed " << seed << ": "
                             << oracle.status().ToString();

    options.engine = DiagnosabilityEngine::kCentralSemiNaive;
    auto seminaive = CheckDiagnosability(net, options);
    ASSERT_TRUE(seminaive.ok()) << "seed " << seed << ": "
                                << seminaive.status().ToString();

    options.engine = DiagnosabilityEngine::kCentralQsq;
    auto qsq = CheckDiagnosability(net, options);
    ASSERT_TRUE(qsq.ok()) << "seed " << seed << ": "
                          << qsq.status().ToString();

    EXPECT_EQ(seminaive->diagnosable, oracle->diagnosable) << "seed " << seed;
    EXPECT_EQ(qsq->diagnosable, oracle->diagnosable) << "seed " << seed;
    EXPECT_EQ(seminaive->witness_anchors, qsq->witness_anchors)
        << "seed " << seed;

    if (!oracle->diagnosable) {
      ++undiagnosable;
      // The oracle's translated anchor must be one of the Datalog
      // engines' anchors.
      ASSERT_EQ(oracle->witness_anchors.size(), 1u) << "seed " << seed;
      bool member = false;
      for (const std::string& anchor : seminaive->witness_anchors) {
        if (anchor == oracle->witness_anchors[0]) member = true;
      }
      EXPECT_TRUE(member) << "seed " << seed;

      // Every engine's witness replays to a genuine ambiguous run pair.
      for (const auto* result : {&*oracle, &*seminaive, &*qsq}) {
        ASSERT_TRUE(result->witness.has_value()) << "seed " << seed;
        Status replay = petri::ReplayWitness(net, *result->witness);
        EXPECT_TRUE(replay.ok()) << "seed " << seed << ": "
                                 << replay.ToString();
      }
    } else {
      EXPECT_TRUE(seminaive->witness_anchors.empty()) << "seed " << seed;
    }
  }
  // The sweep must cross the boundary in both directions.
  EXPECT_GE(undiagnosable, 1u);
  EXPECT_LT(undiagnosable, kNumSeeds);
}

TEST(DiagnosabilityPropertyTest, DistributedEnginesMatchCentral) {
  // Every 5th seed of the sweep also runs both distributed engines; the
  // anchor sets must be byte-identical to the central semi-naive run.
  for (uint64_t seed = 5; seed <= kNumSeeds; seed += 5) {
    PetriNet net = NetForSeed(seed);

    DiagnosabilityOptions options;
    options.engine = DiagnosabilityEngine::kCentralSemiNaive;
    auto central = CheckDiagnosability(net, options);
    ASSERT_TRUE(central.ok()) << "seed " << seed;

    for (DiagnosabilityEngine engine :
         {DiagnosabilityEngine::kDistNaive, DiagnosabilityEngine::kDistQsq}) {
      options.engine = engine;
      options.seed = seed;
      auto dist = CheckDiagnosability(net, options);
      ASSERT_TRUE(dist.ok()) << DiagnosabilityEngineName(engine) << " seed "
                             << seed << ": " << dist.status().ToString();
      EXPECT_EQ(dist->diagnosable, central->diagnosable)
          << DiagnosabilityEngineName(engine) << " seed " << seed;
      EXPECT_EQ(dist->witness_anchors, central->witness_anchors)
          << DiagnosabilityEngineName(engine) << " seed " << seed;
      if (!dist->diagnosable) {
        ASSERT_TRUE(dist->witness.has_value());
        EXPECT_TRUE(petri::ReplayWitness(net, *dist->witness).ok());
      }
    }
  }
}

}  // namespace
}  // namespace dqsq::diagnosis
