#include "diagnosis/diagnosability.h"

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "petri/net.h"
#include "petri/verifier.h"

namespace dqsq::diagnosis {
namespace {

using petri::PeerIndex;
using petri::PetriNet;
using petri::PlaceId;
using petri::ReplayWitness;
using petri::VerifierNet;

/// The named regression fixture (see also tests/petri/verifier_test.cc):
/// 3 places, 1 peer, NOT diagnosable — after the silent fault f the loop
/// a1 rings "a" forever, indistinguishable from the fault-free u + a2 run.
PetriNet MakeUndiagnosableLoopNet() {
  PetriNet net;
  PeerIndex p = net.AddPeer("peer0");
  PlaceId p0 = net.AddPlace("p0", p);
  PlaceId p1 = net.AddPlace("p1", p);
  PlaceId p2 = net.AddPlace("p2", p);
  net.AddTransition("f", p, "silent", {p0}, {p1}, /*observable=*/false,
                    /*fault=*/true);
  net.AddTransition("u", p, "silent", {p0}, {p2}, /*observable=*/false);
  net.AddTransition("a1", p, "a", {p1}, {p1}, /*observable=*/true);
  net.AddTransition("a2", p, "a", {p2}, {p2}, /*observable=*/true);
  net.SetInitialMarking({p0});
  return net;
}

PetriNet MakeDiagnosableLoopNet() {
  PetriNet net;
  PeerIndex p = net.AddPeer("peer0");
  PlaceId p0 = net.AddPlace("p0", p);
  PlaceId p1 = net.AddPlace("p1", p);
  PlaceId p2 = net.AddPlace("p2", p);
  net.AddTransition("f", p, "silent", {p0}, {p1}, /*observable=*/false,
                    /*fault=*/true);
  net.AddTransition("u", p, "silent", {p0}, {p2}, /*observable=*/false);
  net.AddTransition("b1", p, "b", {p1}, {p1}, /*observable=*/true);
  net.AddTransition("a2", p, "a", {p2}, {p2}, /*observable=*/true);
  net.SetInitialMarking({p0});
  return net;
}

const DiagnosabilityEngine kAllEngines[] = {
    DiagnosabilityEngine::kReference,
    DiagnosabilityEngine::kCentralSemiNaive,
    DiagnosabilityEngine::kCentralQsq,
    DiagnosabilityEngine::kDistNaive,
    DiagnosabilityEngine::kDistQsq,
};

TEST(DiagnosabilityTest, UndiagnosableFixtureOnEveryEngine) {
  PetriNet net = MakeUndiagnosableLoopNet();
  for (DiagnosabilityEngine engine : kAllEngines) {
    DiagnosabilityOptions options;
    options.engine = engine;
    auto result = CheckDiagnosability(net, options);
    ASSERT_TRUE(result.ok()) << DiagnosabilityEngineName(engine) << ": "
                             << result.status().ToString();
    EXPECT_FALSE(result->diagnosable) << DiagnosabilityEngineName(engine);
    EXPECT_FALSE(result->witness_anchors.empty());
    ASSERT_TRUE(result->witness.has_value());
    Status replay = ReplayWitness(net, *result->witness);
    EXPECT_TRUE(replay.ok()) << replay.ToString();
  }
}

TEST(DiagnosabilityTest, DiagnosableFixtureOnEveryEngine) {
  PetriNet net = MakeDiagnosableLoopNet();
  for (DiagnosabilityEngine engine : kAllEngines) {
    DiagnosabilityOptions options;
    options.engine = engine;
    auto result = CheckDiagnosability(net, options);
    ASSERT_TRUE(result.ok()) << DiagnosabilityEngineName(engine) << ": "
                             << result.status().ToString();
    EXPECT_TRUE(result->diagnosable) << DiagnosabilityEngineName(engine);
    EXPECT_TRUE(result->witness_anchors.empty());
    EXPECT_FALSE(result->witness.has_value());
  }
}

TEST(DiagnosabilityTest, DatalogEnginesAgreeOnAnchorSets) {
  PetriNet net = MakeUndiagnosableLoopNet();
  DiagnosabilityOptions options;
  options.engine = DiagnosabilityEngine::kCentralSemiNaive;
  auto seminaive = CheckDiagnosability(net, options);
  ASSERT_TRUE(seminaive.ok());
  options.engine = DiagnosabilityEngine::kCentralQsq;
  auto qsq = CheckDiagnosability(net, options);
  ASSERT_TRUE(qsq.ok());
  options.engine = DiagnosabilityEngine::kDistNaive;
  auto dnaive = CheckDiagnosability(net, options);
  ASSERT_TRUE(dnaive.ok());
  options.engine = DiagnosabilityEngine::kDistQsq;
  auto dqsq = CheckDiagnosability(net, options);
  ASSERT_TRUE(dqsq.ok());

  EXPECT_EQ(seminaive->witness_anchors, qsq->witness_anchors);
  EXPECT_EQ(seminaive->witness_anchors, dnaive->witness_anchors);
  EXPECT_EQ(seminaive->witness_anchors, dqsq->witness_anchors);
  EXPECT_GT(dnaive->messages, 0u);
  EXPECT_GT(dnaive->tuples_shipped, 0u);
}

TEST(DiagnosabilityTest, OracleAnchorBelongsToDatalogAnchorSet) {
  PetriNet net = MakeUndiagnosableLoopNet();
  DiagnosabilityOptions options;
  options.engine = DiagnosabilityEngine::kReference;
  auto oracle = CheckDiagnosability(net, options);
  ASSERT_TRUE(oracle.ok());
  ASSERT_EQ(oracle->witness_anchors.size(), 1u);
  options.engine = DiagnosabilityEngine::kCentralSemiNaive;
  auto datalog = CheckDiagnosability(net, options);
  ASSERT_TRUE(datalog.ok());
  bool member = false;
  for (const std::string& anchor : datalog->witness_anchors) {
    if (anchor == oracle->witness_anchors[0]) member = true;
  }
  EXPECT_TRUE(member) << "oracle anchor " << oracle->witness_anchors[0]
                      << " missing from the Datalog anchor set";
}

TEST(DiagnosabilityTest, ZeroFaultNetIsTriviallyDiagnosable) {
  PetriNet net;
  PeerIndex p = net.AddPeer("peer0");
  PlaceId p0 = net.AddPlace("p0", p);
  PlaceId p1 = net.AddPlace("p1", p);
  net.AddTransition("go", p, "a", {p0}, {p1}, /*observable=*/true);
  net.AddTransition("back", p, "b", {p1}, {p0}, /*observable=*/true);
  net.SetInitialMarking({p0});
  for (DiagnosabilityEngine engine : kAllEngines) {
    DiagnosabilityOptions options;
    options.engine = engine;
    auto result = CheckDiagnosability(net, options);
    ASSERT_TRUE(result.ok()) << DiagnosabilityEngineName(engine);
    EXPECT_TRUE(result->diagnosable) << DiagnosabilityEngineName(engine);
  }
}

TEST(DiagnosabilityTest, AllUnobservableFaultLoopIsUndiagnosable) {
  PetriNet net;
  PeerIndex p = net.AddPeer("peer0");
  PlaceId p0 = net.AddPlace("p0", p);
  PlaceId p1 = net.AddPlace("p1", p);
  net.AddTransition("f", p, "silent", {p0}, {p1}, /*observable=*/false,
                    /*fault=*/true);
  net.AddTransition("loop", p, "silent", {p1}, {p1}, /*observable=*/false);
  net.SetInitialMarking({p0});
  for (DiagnosabilityEngine engine : kAllEngines) {
    DiagnosabilityOptions options;
    options.engine = engine;
    auto result = CheckDiagnosability(net, options);
    ASSERT_TRUE(result.ok()) << DiagnosabilityEngineName(engine);
    EXPECT_FALSE(result->diagnosable) << DiagnosabilityEngineName(engine);
    ASSERT_TRUE(result->witness.has_value());
    EXPECT_TRUE(ReplayWitness(net, *result->witness).ok());
  }
}

TEST(DiagnosabilityTest, ProgramTextIsDeterministic) {
  PetriNet net = MakeUndiagnosableLoopNet();
  auto verifier = VerifierNet::Build(net);
  ASSERT_TRUE(verifier.ok());
  auto a = BuildVerifierProgramText(*verifier);
  auto b = BuildVerifierProgramText(*verifier);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->program, b->program);
  EXPECT_EQ(a->query, "witness@ver0(X)");
  EXPECT_NE(a->program.find("init@ver0(v0).\n"), std::string::npos);
  EXPECT_NE(a->program.find("reach@ver0(X) :- init@ver0(X).\n"),
            std::string::npos);
}

TEST(DiagnosabilityTest, MetricsCountRuns) {
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  PetriNet net = MakeUndiagnosableLoopNet();
  DiagnosabilityOptions options;
  options.engine = DiagnosabilityEngine::kCentralQsq;
  ASSERT_TRUE(CheckDiagnosability(net, options).ok());
  MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  MetricsSnapshot delta = after.Diff(before);
  EXPECT_EQ(delta.Value("diag.verify.runs", Labels{{"engine", "qsq"}}), 1u);
  EXPECT_EQ(
      delta.Value("diag.verify.undiagnosable", Labels{{"engine", "qsq"}}),
      1u);
}

TEST(DiagnosabilityTest, EngineNamesAreStable) {
  EXPECT_EQ(DiagnosabilityEngineName(DiagnosabilityEngine::kReference),
            "reference");
  EXPECT_EQ(DiagnosabilityEngineName(DiagnosabilityEngine::kCentralSemiNaive),
            "seminaive");
  EXPECT_EQ(DiagnosabilityEngineName(DiagnosabilityEngine::kCentralQsq),
            "qsq");
  EXPECT_EQ(DiagnosabilityEngineName(DiagnosabilityEngine::kDistNaive),
            "dnaive");
  EXPECT_EQ(DiagnosabilityEngineName(DiagnosabilityEngine::kDistQsq), "dqsq");
}

}  // namespace
}  // namespace dqsq::diagnosis
