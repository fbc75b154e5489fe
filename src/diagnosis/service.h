// Multi-tenant online diagnosis service: thousands of concurrent per-plant
// monitoring sessions behind one process (ROADMAP item 2). Each session is
// an OnlineDiagnoser over a registered plant model; what makes the service
// more than a session map is what the sessions share and how they are
// bounded:
//
//  * One compiled model. All sessions of one model point at the model's
//    one QSQ-rewritten program and DatalogContext (OnlineModel), so the
//    rewrite runs once and every Skolem term, symbol and predicate is
//    interned once, not once per session.
//  * Shared subquery/unfolding-prefix cache. A session's answers depend
//    only on its per-peer observation subsequences (the paper's §4.2
//    observation semantics), so the service keys a SubqueryCache on that
//    canonical prefix. Any session reaching a prefix some session already
//    solved gets the answers without touching the evaluator — dQSQ's
//    subquery memoization (§3.2) made cross-session. The cached bytes
//    become the session's current answer as they are.
//  * Admission control and per-session budgets. OpenSession rejects
//    tenants beyond ServiceOptions::max_sessions; every evaluation runs
//    under session_max_facts (adjustable per session for differentiated
//    tiers).
//  * Cold-session hibernation. At most max_resident_sessions keep their
//    current answer and database in memory; colder sessions are written
//    through the snapshot byte codec (dist/snapshot.h) into a
//    DurableStore and keep only their alarm history, the one copy of it.
//    The hibernation image is the session's alarm history plus its
//    encoded current answer, written verbatim. A wake checks the image
//    against the history in place and takes the answer bytes back
//    undecoded, without evaluating or building a rule; the database is
//    rebuilt from the history at the session's next cache miss, and the
//    shared prefix cache makes that rare. An image that names another
//    session, holds other alarms or has trailing bytes fails the call
//    instead of aborting. CloseSession erases the image.
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
#include <string_view>
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
  /// Sessions allowed to keep their answer and database in memory; beyond
  /// this the least-recently-touched session is hibernated to the durable
  /// store.
  size_t max_resident_sessions = 1024;
  /// Per-session evaluation fact budget (OnlineOptions::max_facts).
  size_t session_max_facts = 5'000'000;
  /// Byte budget of each model's shared prefix cache (0 disables).
  size_t cache_bytes = 64u << 20;
  /// Hibernation target. When null the service owns an in-memory store
  /// (sessions survive eviction but not the process).
  dist::DurableStore* store = nullptr;
};

/// The canonical cache key of an observation prefix: the per-peer alarm
/// subsequences in sorted peer order ("p1:b,c,|p2:a,|"). Two sessions whose
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

  /// Removes the session (resident or hibernated) and its hibernation
  /// image.
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
  /// store and drops its answer and database. No-op if already hibernated.
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
    Session(const std::string& session, const ModelEntry& model,
            size_t max_facts)
        : store_key(std::string(kStoreKeyPrefix) + session),
          model_name(model.name),
          model_fingerprint(model.fingerprint),
          diagnoser(OnlineDiagnoser::CreateShared(
              model.model, OnlineOptions{max_facts})) {}

    static constexpr std::string_view kStoreKeyPrefix = "diag.session/";
    /// Key of the hibernation image: kStoreKeyPrefix + session name.
    std::string store_key;
    std::string_view name() const {
      return std::string_view(store_key).substr(kStoreKeyPrefix.size());
    }
    /// Sessions reference their model by name + fingerprint, never by
    /// pointer: a hibernated session must survive the model being
    /// unregistered, and must be refused residency (FAILED_PRECONDITION)
    /// if the name was re-registered with different structure.
    std::string model_name;
    uint64_t model_fingerprint = 0;
    /// Lives as long as the session and owns its alarm history and
    /// budget; hibernated (no model, answer or database) while the
    /// session is.
    OnlineDiagnoser diagnoser;
    /// Position in resident_lru_ while resident, in hibernated_ otherwise.
    std::list<Session*>::iterator lru_pos;
  };

  Session* FindSession(const std::string& session);
  /// The live ModelEntry the session may run over, or FAILED_PRECONDITION
  /// when the model is gone / structurally different from admission time.
  StatusOr<ModelEntry*> ResolveModel(const Session& s);

  /// Serialized hibernation image of a resident session.
  static std::string SerializeSession(const Session& s);

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
  /// The other sessions' list nodes, so a wake or an eviction moves a
  /// node instead of allocating one.
  std::list<Session*> hibernated_;
};

}  // namespace dqsq::diagnosis

#endif  // DQSQ_DIAGNOSIS_SERVICE_H_
