// Online diagnosis: alarms arrive one at a time, and the supervisor keeps
// its materialization across steps (the paper's Remark 2 — results may
// flow before the computation is complete — and the incremental spirit of
// Remark 5). Each observed alarm adds one automaton-edge fact
// aedge_<p>(st_p_i, al_a, st_p_{i+1}) to the session's database;
// demand-driven evaluation then computes only the delta: the unfolding
// fragment materialized for the previous prefix is reused, never
// re-derived.
//
// A QSQ rewrite depends on the call pattern, not on the constants bound
// into it (§3.2), so OnlineModel::Build rewrites the supervisor's
// positional query q(Z, X, S_1..S_m) once for q^{ff b…b}. Every session of
// the model points at that one model: its immutable program and its
// DatalogContext. A session is its alarm history, its current answer kept
// as EncodeExplanations bytes (the form the service's prefix cache and
// hibernation images hold) and an optional Database that catches up with
// the history at the next evaluation, which binds the current positions.
//
// Observe is transactional: a failed evaluation (e.g. the per-step fact
// budget) pops the alarm and drops the database, so no stale edge
// survives; the database is rebuilt from the history when next needed.
#ifndef DQSQ_DIAGNOSIS_ONLINE_H_
#define DQSQ_DIAGNOSIS_ONLINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/engine.h"
#include "diagnosis/explanation.h"
#include "dist/snapshot.h"
#include "petri/alarm.h"
#include "petri/net.h"

namespace dqsq::diagnosis {

/// Serialization of explanation sets through the snapshot byte codec —
/// a session's current answer, and so the value format of the shared
/// prefix cache and of hibernation images.
void EncodeExplanations(const std::vector<Explanation>& explanations,
                        dist::SnapshotWriter& w);
std::vector<Explanation> DecodeExplanations(dist::SnapshotReader& r);
/// Steps over one encoded explanation set without building it.
void SkipExplanations(dist::SnapshotReader& r);

struct OnlineOptions {
  /// Fact budget for each incremental evaluation.
  size_t max_facts = 5'000'000;
};

/// The session-independent part of an online diagnoser for one plant
/// model, compiled once and pointed at by every session over it.
struct OnlineModel {
  std::shared_ptr<DatalogContext> ctx;
  /// The QSQ rewrite of net encoding + open-automaton supervisor for
  /// q^{ff b…b}: immutable, evaluated by every session over its own
  /// database.
  std::shared_ptr<const RewriteResult> program;
  /// q@sup(Z, X, S_1..S_m): S_j is the automaton position of
  /// observed_peers[j], bound to a constant per evaluation.
  RelId query_rel;
  /// The peers, in query-argument order, and their aedge relations.
  std::vector<std::string> observed_peers;
  std::vector<RelId> edge_rels;

  static StatusOr<OnlineModel> Build(const petri::PetriNet& net);
};

class OnlineDiagnoser {
 public:
  /// Compiles a private model of `net` and opens a session over it; the
  /// session keeps the model alive.
  static StatusOr<OnlineDiagnoser> Create(const petri::PetriNet& net,
                                          const OnlineOptions& options);

  /// A session over a prebuilt model, sharing its compiled program and
  /// DatalogContext with every other session of the model. `model` must
  /// outlive the session (or its next Hibernate).
  static OnlineDiagnoser CreateShared(const OnlineModel& model,
                                      const OnlineOptions& options);

  /// Feeds the next alarm and returns the explanations of the whole prefix
  /// observed so far. Fails for alarms from peers the net does not have.
  /// Transactional: on evaluation failure the alarm is forgotten and the
  /// database dropped, so the same or another alarm can follow (e.g. after
  /// raising the budget) as if the failed call never happened.
  StatusOr<std::vector<Explanation>> Observe(const petri::Alarm& alarm);

  /// Appends the alarm without evaluating and installs `encoded`, the
  /// EncodeExplanations bytes of the resulting prefix's explanations, as
  /// the current answer. Used when a cross-session prefix cache already
  /// knows the answer; demand-driven evaluation does not depend on the
  /// intermediate steps having been materialized.
  Status ObserveCached(const petri::Alarm& alarm, std::string encoded);
  Status ObserveCached(const petri::Alarm& alarm,
                       const std::vector<Explanation>& explanations);

  /// Explanations of the current prefix (empty prefix: the empty run).
  /// Decoded from the current answer; evaluated if there is none.
  StatusOr<std::vector<Explanation>> Current();

  /// Drops the database, the current answer and the model, keeping the
  /// history and the budget: the caller has written the answer elsewhere.
  void Hibernate();

  /// Binds a hibernated session to `model` again; `encoded` (if any) is
  /// its current answer, as written at hibernation.
  void Wake(const OnlineModel& model, std::optional<std::string> encoded);

  bool hibernated() const { return model_ == nullptr; }

  /// Alarms observed so far, in arrival order.
  const petri::AlarmSequence& history() const { return history_; }
  size_t num_observed() const { return history_.size(); }

  /// Facts in the session's database (0 while it is dropped).
  size_t total_facts() const { return db_ ? db_->TotalFacts() : 0; }

  /// New facts derived by the most recent evaluation only.
  size_t last_step_new_facts() const { return last_new_facts_; }

  /// The encoded current answer, or null if Current() would evaluate.
  const std::string* encoded_current() const {
    return has_current_ ? &current_ : nullptr;
  }

  /// Adjusts the per-evaluation fact budget (admission control hands
  /// sessions differentiated budgets; a budget-failed Observe may be
  /// retried after raising it).
  void set_max_facts(size_t max_facts) { options_.max_facts = max_facts; }

 private:
  OnlineDiagnoser() = default;

  /// Index of `peer` in the model's observed peers; their count if unknown.
  size_t PeerIndex(const std::string& peer) const;

  /// Appends `alarm` to the history. Fails for unknown peers, leaving the
  /// session untouched.
  Status Append(const petri::Alarm& alarm);

  /// Inserts the chain edge of peer `peer`'s alarm `symbol` from position
  /// `from` into the database.
  void InsertEdge(size_t peer, uint32_t from, const std::string& symbol);

  /// Evaluates the query at the current positions, first inserting the
  /// edges of the alarms the database has not seen (all of them if it was
  /// dropped). Drops the database on failure.
  StatusOr<std::vector<Explanation>> Solve();

  OnlineOptions options_;
  /// Null while hibernated.
  const OnlineModel* model_ = nullptr;
  /// Set by Create only: the private model model_ points at.
  std::shared_ptr<const OnlineModel> private_model_;
  petri::AlarmSequence history_;
  bool has_current_ = false;
  /// EncodeExplanations bytes of the current answer.
  std::string current_;
  /// Null until the first evaluation and after a failed one.
  std::unique_ptr<Database> db_;
  /// Leading alarms of history_ whose edges db_ holds.
  size_t db_alarms_ = 0;
  size_t last_new_facts_ = 0;
};

}  // namespace dqsq::diagnosis

#endif  // DQSQ_DIAGNOSIS_ONLINE_H_
