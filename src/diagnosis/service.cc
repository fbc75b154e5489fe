#include "diagnosis/service.h"

#include <utility>

#include "common/logging.h"
#include "common/metrics.h"

namespace dqsq::diagnosis {

namespace {

void UpdateGauge(const char* name, int64_t value) {
  MetricsRegistry::Global().GetGauge(name).Set(value);
}

// The per-alarm path (observe, restore, hibernate) holds its handles, each
// resolved on first use; the admission path looks metrics up by name.
void UpdateResidentGauge(size_t resident) {
  static Gauge& gauge =
      MetricsRegistry::Global().GetGauge("diag.service.resident");
  gauge.Set(static_cast<int64_t>(resident));
}

void FnvStr(uint64_t& h, const std::string& s) {
  for (char c : s) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  h = (h ^ 0xffu) * 0x100000001b3ULL;  // length/field separator
}

void FnvU64(uint64_t& h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xffu)) * 0x100000001b3ULL;
  }
}

/// Structural identity of a registered plant model: FNV-1a over the peers,
/// places, transitions (name, peer, alarm, observability, pre/post arcs)
/// and initial marking. Two nets that fingerprint equal drive identical
/// diagnosers, so a hibernated session may wake against either; anything
/// else would replay its alarm history into the wrong plant.
uint64_t ModelFingerprint(const petri::PetriNet& net) {
  uint64_t h = 0xcbf29ce484222325ULL;
  FnvU64(h, net.num_peers());
  for (petri::PeerIndex p = 0; p < net.num_peers(); ++p) {
    FnvStr(h, net.peer_name(p));
  }
  FnvU64(h, net.num_places());
  for (petri::PlaceId p = 0; p < net.num_places(); ++p) {
    FnvStr(h, net.place(p).name);
    FnvU64(h, net.place(p).peer);
  }
  FnvU64(h, net.num_transitions());
  for (petri::TransitionId t = 0; t < net.num_transitions(); ++t) {
    const petri::Transition& tr = net.transition(t);
    FnvStr(h, tr.name);
    FnvU64(h, tr.peer);
    FnvStr(h, tr.alarm);
    FnvU64(h, tr.observable ? 1 : 0);
    FnvU64(h, tr.pre.size());
    for (petri::PlaceId p : tr.pre) FnvU64(h, p);
    FnvU64(h, tr.post.size());
    for (petri::PlaceId p : tr.post) FnvU64(h, p);
  }
  uint64_t marking_bits = 0;
  for (size_t p = 0; p < net.initial_marking().size(); ++p) {
    if (net.initial_marking()[p]) FnvU64(h, p), ++marking_bits;
  }
  FnvU64(h, marking_bits);
  return h;
}

}  // namespace

void EncodeExplanations(const std::vector<Explanation>& explanations,
                        dist::SnapshotWriter& w) {
  w.U32(static_cast<uint32_t>(explanations.size()));
  for (const Explanation& e : explanations) {
    w.U32(static_cast<uint32_t>(e.events.size()));
    for (const std::string& event : e.events) w.Str(event);
  }
}

std::vector<Explanation> DecodeExplanations(dist::SnapshotReader& r) {
  std::vector<Explanation> out(r.U32());
  for (Explanation& e : out) {
    e.events.resize(r.U32());
    for (std::string& event : e.events) event = r.Str();
  }
  return out;
}

std::string ObservationPrefixKey(const petri::AlarmSequence& history) {
  // SplitByPeer yields the per-peer subsequences in sorted peer order —
  // the observation semantics of §4.2, under which the cross-peer
  // interleaving is irrelevant to the explanations.
  std::string key;
  for (const auto& [peer, symbols] : petri::SplitByPeer(history)) {
    key += peer;
    key += ':';
    for (const std::string& symbol : symbols) {
      key += symbol;
      key += ',';
    }
    key += '|';
  }
  return key;
}

DiagnosisService::DiagnosisService(const ServiceOptions& options)
    : options_(options) {
  if (options_.max_resident_sessions == 0) options_.max_resident_sessions = 1;
  if (options_.store == nullptr) {
    owned_store_ = std::make_unique<dist::InMemoryDurableStore>();
    store_ = owned_store_.get();
  } else {
    store_ = options_.store;
  }
}

Status DiagnosisService::RegisterModel(const std::string& model,
                                       const petri::PetriNet& net) {
  if (models_.count(model) != 0) {
    return AlreadyExistsError("model already registered: " + model);
  }
  DQSQ_ASSIGN_OR_RETURN(OnlineModel built, OnlineModel::Build(net));
  models_.emplace(model, std::make_unique<ModelEntry>(
                             model, ModelFingerprint(net), std::move(built),
                             options_.cache_bytes));
  return Status::Ok();
}

Status DiagnosisService::UnregisterModel(const std::string& model) {
  auto it = models_.find(model);
  if (it == models_.end()) {
    return NotFoundError("unknown model: " + model);
  }
  // Resident sessions of this model are hibernated, so that they — like
  // the already hibernated ones — wake only through EnsureResident's
  // fingerprint gate: they stay wakeable iff a structurally identical
  // model is registered under the same name later.
  for (auto lit = resident_lru_.begin(); lit != resident_lru_.end();) {
    Session* s = *lit;
    ++lit;  // HibernateSession erases s->lru_pos
    if (s->model_name == model) DQSQ_RETURN_IF_ERROR(HibernateSession(*s));
  }
  models_.erase(it);
  CountMetric("diag.service.models_unregistered");
  return Status::Ok();
}

StatusOr<DiagnosisService::ModelEntry*> DiagnosisService::ResolveModel(
    const Session& s) {
  auto it = models_.find(s.model_name);
  if (it == models_.end()) {
    return FailedPreconditionError("session " + s.name + " was admitted for "
                                   "model " + s.model_name +
                                   ", which is no longer registered");
  }
  if (it->second->fingerprint != s.model_fingerprint) {
    return FailedPreconditionError(
        "session " + s.name + " was admitted for a structurally different "
        "registration of model " + s.model_name +
        "; refusing to replay its history into the new plant");
  }
  return it->second.get();
}

Status DiagnosisService::OpenSession(const std::string& session,
                                     const std::string& model) {
  if (sessions_.count(session) != 0) {
    return AlreadyExistsError("session already open: " + session);
  }
  if (sessions_.size() >= options_.max_sessions) {
    CountMetric("diag.service.sessions_rejected");
    return ResourceExhaustedError(
        "admission: session cap reached (" +
        std::to_string(options_.max_sessions) + ")");
  }
  auto mit = models_.find(model);
  if (mit == models_.end()) {
    return NotFoundError("unknown model: " + model);
  }
  auto s = std::make_unique<Session>();
  s->name = session;
  s->model_name = mit->second->name;
  s->model_fingerprint = mit->second->fingerprint;
  s->max_facts = options_.session_max_facts;
  s->diagnoser = std::make_unique<OnlineDiagnoser>(OnlineDiagnoser::CreateShared(
      mit->second->model, OnlineOptions{s->max_facts}));
  s->lru_pos = resident_lru_.insert(resident_lru_.begin(), s.get());
  Session* raw = s.get();
  sessions_.emplace(session, std::move(s));
  CountMetric("diag.service.sessions_admitted");
  Status cap = EnforceResidencyCap(raw);
  UpdateGauge("diag.service.sessions", static_cast<int64_t>(sessions_.size()));
  UpdateResidentGauge(resident_lru_.size());
  return cap;
}

Status DiagnosisService::CloseSession(const std::string& session) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return NotFoundError("unknown session: " + session);
  }
  Session& s = *it->second;
  if (s.diagnoser) resident_lru_.erase(s.lru_pos);
  sessions_.erase(it);
  CountMetric("diag.service.sessions_closed");
  UpdateGauge("diag.service.sessions", static_cast<int64_t>(sessions_.size()));
  UpdateResidentGauge(resident_lru_.size());
  return Status::Ok();
}

DiagnosisService::Session* DiagnosisService::FindSession(
    const std::string& session) {
  auto it = sessions_.find(session);
  return it == sessions_.end() ? nullptr : it->second.get();
}

bool DiagnosisService::is_resident(const std::string& session) const {
  auto it = sessions_.find(session);
  return it != sessions_.end() && it->second->diagnoser != nullptr;
}

StatusOr<size_t> DiagnosisService::NumObserved(
    const std::string& session) const {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return NotFoundError("unknown session: " + session);
  }
  return it->second->history.size();
}

const SubqueryCache* DiagnosisService::cache(const std::string& model) const {
  auto it = models_.find(model);
  return it == models_.end() ? nullptr : &it->second->cache;
}

Status DiagnosisService::SetSessionBudget(const std::string& session,
                                          size_t max_facts) {
  Session* s = FindSession(session);
  if (s == nullptr) return NotFoundError("unknown session: " + session);
  s->max_facts = max_facts;
  if (s->diagnoser) s->diagnoser->set_max_facts(max_facts);
  return Status::Ok();
}

StatusOr<std::vector<Explanation>> DiagnosisService::Observe(
    const std::string& session, const petri::Alarm& alarm) {
  Session* s = FindSession(session);
  if (s == nullptr) return NotFoundError("unknown session: " + session);
  static Histogram& latency = TimeMetric("diag.service.alarm_latency");
  ScopedTimer timer(latency);
  DQSQ_ASSIGN_OR_RETURN(ModelEntry * entry, ResolveModel(*s));
  DQSQ_RETURN_IF_ERROR(EnsureResident(*s));
  TouchResident(*s);
  static Counter& alarms =
      MetricsRegistry::Global().GetCounter("diag.service.alarms");
  alarms.Increment();

  // Key of the prefix this alarm would produce. An unknown-peer alarm
  // yields a key no successful observation can ever have cached, so the
  // lookup harmlessly misses before the diagnoser rejects the alarm.
  petri::AlarmSequence next = s->history;
  next.push_back(alarm);
  const std::string key = ObservationPrefixKey(next);

  std::string blob;
  if (options_.cache_bytes > 0 && entry->cache.Get(key, &blob)) {
    dist::SnapshotReader r(blob);
    std::vector<Explanation> explanations = DecodeExplanations(r);
    DQSQ_RETURN_IF_ERROR(s->diagnoser->ObserveCached(alarm, explanations));
    s->history.push_back(alarm);
    static Counter& hits =
        MetricsRegistry::Global().GetCounter("diag.service.cache_hits");
    hits.Increment();
    return explanations;
  }
  static Counter& misses =
      MetricsRegistry::Global().GetCounter("diag.service.cache_misses");
  misses.Increment();

  StatusOr<std::vector<Explanation>> result = s->diagnoser->Observe(alarm);
  if (!result.ok()) return result;  // Observe is transactional: no cleanup
  s->history.push_back(alarm);
  if (options_.cache_bytes > 0) {
    dist::SnapshotWriter w;
    EncodeExplanations(*result, w);
    entry->cache.Put(key, w.Take());
  }
  return result;
}

StatusOr<std::vector<Explanation>> DiagnosisService::Current(
    const std::string& session) {
  Session* s = FindSession(session);
  if (s == nullptr) return NotFoundError("unknown session: " + session);
  DQSQ_RETURN_IF_ERROR(EnsureResident(*s));
  TouchResident(*s);
  return s->diagnoser->Current();
}

Status DiagnosisService::Hibernate(const std::string& session) {
  Session* s = FindSession(session);
  if (s == nullptr) return NotFoundError("unknown session: " + session);
  return HibernateSession(*s);
}

std::string DiagnosisService::SerializeSession(Session& s) {
  DQSQ_CHECK(s.diagnoser != nullptr);
  dist::SnapshotWriter w;
  w.Str(s.name);
  w.Str(s.model_name);
  w.U64(s.model_fingerprint);
  w.U64(s.history.size());
  for (const petri::Alarm& alarm : s.history) {
    w.Str(alarm.symbol);
    w.Str(alarm.peer);
  }
  const std::vector<Explanation>* current = s.diagnoser->cached_current();
  w.Bool(current != nullptr);
  if (current != nullptr) EncodeExplanations(*current, w);
  return w.Take();
}

Status DiagnosisService::HibernateSession(Session& s) {
  if (!s.diagnoser) return Status::Ok();
  store_->Put(StoreKey(s), SerializeSession(s));
  resident_lru_.erase(s.lru_pos);
  s.diagnoser.reset();
  static Counter& hibernated =
      MetricsRegistry::Global().GetCounter("diag.service.sessions_hibernated");
  hibernated.Increment();
  UpdateResidentGauge(resident_lru_.size());
  return Status::Ok();
}

Status DiagnosisService::EnsureResident(Session& s) {
  if (s.diagnoser) return Status::Ok();
  // Admission gate for waking: the model named at hibernation time must
  // still be registered with the same structure. A plant redeployed with
  // a different net between hibernate and wake fails cleanly here —
  // replaying the stored history into it would produce explanations for
  // the wrong plant.
  DQSQ_ASSIGN_OR_RETURN(ModelEntry * entry, ResolveModel(s));
  std::optional<std::string> blob = store_->Get(StoreKey(s));
  if (!blob.has_value()) {
    return InternalError("hibernation image missing for session " + s.name);
  }
  dist::SnapshotReader r(*blob);
  const std::string name = r.Str();
  const std::string model = r.Str();
  const uint64_t fingerprint = r.U64();
  const uint64_t n = r.U64();
  // The store is caller-supplied: an image that is not this session's
  // fails the call, not the process.
  auto foreign = [&] {
    return InternalError("hibernation image under " + StoreKey(s) +
                         " is not session " + s.name + "'s");
  };
  if (name != s.name || n != s.history.size()) return foreign();
  if (model != s.model_name || fingerprint != s.model_fingerprint) {
    return FailedPreconditionError(
        "hibernation image of session " + s.name + " was taken under model " +
        model + " (fingerprint mismatch with its admission record)");
  }
  petri::AlarmSequence history(n);
  for (petri::Alarm& alarm : history) {
    alarm.symbol = r.Str();
    alarm.peer = r.Str();
  }
  DQSQ_ASSIGN_OR_RETURN(
      OnlineDiagnoser d,
      OnlineDiagnoser::Resume(entry->model, OnlineOptions{s.max_facts},
                              history));
  if (r.Bool()) d.RestoreCurrent(DecodeExplanations(r));
  if (!r.AtEnd()) return foreign();
  s.history = std::move(history);
  s.diagnoser = std::make_unique<OnlineDiagnoser>(std::move(d));
  s.lru_pos = resident_lru_.insert(resident_lru_.begin(), &s);
  static Counter& restored =
      MetricsRegistry::Global().GetCounter("diag.service.sessions_restored");
  restored.Increment();
  Status cap = EnforceResidencyCap(&s);
  UpdateResidentGauge(resident_lru_.size());
  return cap;
}

void DiagnosisService::TouchResident(Session& s) {
  DQSQ_CHECK(s.diagnoser != nullptr);
  resident_lru_.splice(resident_lru_.begin(), resident_lru_, s.lru_pos);
}

Status DiagnosisService::EnforceResidencyCap(Session* keep) {
  while (resident_lru_.size() > options_.max_resident_sessions) {
    Session* victim = resident_lru_.back();
    if (victim == keep) break;  // never evict the session being served
    DQSQ_RETURN_IF_ERROR(HibernateSession(*victim));
  }
  return Status::Ok();
}

}  // namespace dqsq::diagnosis
