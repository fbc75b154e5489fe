// Multi-tenant online diagnosis service: thousands of concurrent per-plant
// monitoring sessions behind one process (ROADMAP item 2). Each session is
// an OnlineDiagnoser over a registered plant model; what makes the service
// more than a session map is what the sessions share and how they are
// bounded:
//
//  * One compiled model. All sessions of one model run the model's one
//    QSQ-rewritten program over its DatalogContext (OnlineModel), so the
//    rewrite runs once and every Skolem term, symbol and predicate is
//    interned once, not once per session.
//  * Shared subquery/unfolding-prefix cache. A session's answers depend
//    only on its per-peer observation subsequences (the paper's §4.2
//    observation semantics), so the service keys a SubqueryCache on that
//    canonical prefix. Any session reaching a prefix some session already
//    solved gets the answers without touching the evaluator — dQSQ's
//    subquery memoization (§3.2) made cross-session.
//  * Admission control and per-session budgets. OpenSession rejects
//    tenants beyond ServiceOptions::max_sessions; every evaluation runs
//    under session_max_facts (adjustable per session for differentiated
//    tiers).
//  * Cold-session hibernation. At most max_resident_sessions keep their
//    diagnoser (history, current answer and database) in memory; colder
//    sessions are serialized through the PeerSnapshot byte codec
//    (dist/snapshot.h) into a DurableStore and their database is dropped.
//    The hibernation image is the session's alarm history plus its cached
//    answer — restore hands both to a fresh diagnoser without evaluating
//    or building a rule; the database is rebuilt from the history at the
//    session's next cache miss, and the shared prefix cache makes that
//    rare. An image that names another session, holds another number of
//    alarms or has trailing bytes fails the call instead of aborting.
//
// Single-threaded by design, like the evaluation core: one service
// instance per serving thread, models shared read-only. Metrics are
// exported under `diag.service.*` (docs/METRICS.md).
#ifndef DQSQ_DIAGNOSIS_SERVICE_H_
#define DQSQ_DIAGNOSIS_SERVICE_H_

#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/subquery_cache.h"
#include "diagnosis/online.h"
#include "dist/snapshot.h"
#include "petri/alarm.h"
#include "petri/net.h"

namespace dqsq::diagnosis {

struct ServiceOptions {
  /// Admission cap: total sessions, resident + hibernated.
  size_t max_sessions = 100'000;
  /// Sessions allowed to keep their diagnoser in memory; beyond this the
  /// least-recently-touched session is hibernated to the durable store.
  size_t max_resident_sessions = 1024;
  /// Per-session evaluation fact budget (OnlineOptions::max_facts).
  size_t session_max_facts = 5'000'000;
  /// Byte budget of each model's shared prefix cache (0 disables).
  size_t cache_bytes = 64u << 20;
  /// Hibernation target. When null the service owns an in-memory store
  /// (sessions survive eviction but not the process).
  dist::DurableStore* store = nullptr;
};

/// Serialization of explanation sets through the snapshot byte codec —
/// the value format of the shared prefix cache and of hibernation images.
void EncodeExplanations(const std::vector<Explanation>& explanations,
                        dist::SnapshotWriter& w);
std::vector<Explanation> DecodeExplanations(dist::SnapshotReader& r);

/// The canonical cache key of an observation prefix: the per-peer alarm
/// subsequences in sorted peer order ("p1:b,c|p2:a|"). Two sessions whose
/// interleavings differ but whose per-peer subsequences agree have the
/// same explanations, and therefore the same key.
std::string ObservationPrefixKey(const petri::AlarmSequence& history);

class DiagnosisService {
 public:
  explicit DiagnosisService(const ServiceOptions& options = {});

  DiagnosisService(const DiagnosisService&) = delete;
  DiagnosisService& operator=(const DiagnosisService&) = delete;

  /// Registers a plant model (shared context + compiled program + prefix
  /// cache) under `model`. Fails if the name is taken.
  Status RegisterModel(const std::string& model, const petri::PetriNet& net);

  /// Removes a registered model so the name can be re-registered (e.g. a
  /// plant redeploy). Resident sessions of the model are hibernated first;
  /// they and already-hibernated ones stay admitted, but wake only if a
  /// model of the same name AND structural fingerprint is registered —
  /// waking against a structurally different re-registration fails with
  /// FAILED_PRECONDITION instead of replaying alarms into the wrong plant.
  Status UnregisterModel(const std::string& model);

  /// Admits a new session monitoring one plant of `model`. Fails with
  /// RESOURCE_EXHAUSTED when the admission cap is reached, NOT_FOUND for
  /// an unregistered model, ALREADY_EXISTS for a duplicate session name.
  Status OpenSession(const std::string& session, const std::string& model);

  /// Removes the session (resident or hibernated).
  Status CloseSession(const std::string& session);

  /// Feeds the next alarm of `session`'s plant and returns the
  /// explanations of its whole prefix. Restores a hibernated session
  /// first; consults the shared prefix cache before evaluating. On any
  /// failure (unknown peer, exhausted budget) the session state is
  /// untouched and the call may be retried.
  StatusOr<std::vector<Explanation>> Observe(const std::string& session,
                                             const petri::Alarm& alarm);

  /// Explanations of the session's current prefix.
  StatusOr<std::vector<Explanation>> Current(const std::string& session);

  /// Serializes the session through the snapshot codec into the durable
  /// store and drops its in-memory diagnoser. No-op if already hibernated.
  Status Hibernate(const std::string& session);

  /// Adjusts one session's evaluation budget (differentiated tiers; also
  /// how a budget-failed Observe becomes retryable).
  Status SetSessionBudget(const std::string& session, size_t max_facts);

  size_t num_sessions() const { return sessions_.size(); }
  size_t num_resident() const { return resident_lru_.size(); }
  bool has_session(const std::string& session) const {
    return sessions_.count(session) != 0;
  }
  /// False for hibernated sessions (and unknown ones).
  bool is_resident(const std::string& session) const;
  /// Alarms the session has observed; NOT_FOUND for unknown sessions.
  StatusOr<size_t> NumObserved(const std::string& session) const;

  /// The shared prefix cache of `model`, or nullptr if unregistered.
  const SubqueryCache* cache(const std::string& model) const;

  const ServiceOptions& options() const { return options_; }

 private:
  struct ModelEntry {
    std::string name;
    /// Structural hash of the registered PetriNet (ModelFingerprint):
    /// admission identity across unregister/re-register cycles.
    uint64_t fingerprint = 0;
    OnlineModel model;
    SubqueryCache cache;

    ModelEntry(std::string n, uint64_t fp, OnlineModel m, size_t cache_bytes)
        : name(std::move(n)),
          fingerprint(fp),
          model(std::move(m)),
          cache(cache_bytes) {}
  };

  struct Session {
    std::string name;
    /// Sessions reference their model by name + fingerprint, never by
    /// pointer: a hibernated session must survive the model being
    /// unregistered, and must be refused residency (FAILED_PRECONDITION)
    /// if the name was re-registered with different structure.
    std::string model_name;
    uint64_t model_fingerprint = 0;
    size_t max_facts = 0;
    petri::AlarmSequence history;
    /// Null while hibernated.
    std::unique_ptr<OnlineDiagnoser> diagnoser;
    /// Position in resident_lru_ (valid only while resident).
    std::list<Session*>::iterator lru_pos;
  };

  Session* FindSession(const std::string& session);
  /// The live ModelEntry the session may run over, or FAILED_PRECONDITION
  /// when the model is gone / structurally different from admission time.
  StatusOr<ModelEntry*> ResolveModel(const Session& s);
  std::string StoreKey(const Session& s) const {
    return "diag.session/" + s.name;
  }

  /// Serialized hibernation image of a resident session.
  std::string SerializeSession(Session& s);

  /// Restores `s` from the durable store if hibernated; then bumps it to
  /// the front of the resident LRU and hibernates colder sessions until
  /// the residency cap holds.
  Status EnsureResident(Session& s);
  void TouchResident(Session& s);
  Status EnforceResidencyCap(Session* keep);
  Status HibernateSession(Session& s);

  ServiceOptions options_;
  std::unique_ptr<dist::InMemoryDurableStore> owned_store_;
  dist::DurableStore* store_;
  std::map<std::string, std::unique_ptr<ModelEntry>> models_;
  std::map<std::string, std::unique_ptr<Session>> sessions_;
  std::list<Session*> resident_lru_;  // front = most recently touched
};

}  // namespace dqsq::diagnosis

#endif  // DQSQ_DIAGNOSIS_SERVICE_H_
