#include "diagnosis/service.h"

#include <optional>
#include <string_view>
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

/// ObservationPrefixKey of `history` followed by `next` (if not null),
/// built without copying either: the per-peer alarm subsequences in sorted
/// peer order — the observation semantics of §4.2, under which the
/// cross-peer interleaving is irrelevant to the explanations. Each round
/// selects the next peer in order by a scan over the alarms, so the key
/// is the only allocation.
std::string PrefixKey(const petri::AlarmSequence& history,
                      const petri::Alarm* next) {
  auto for_each_alarm = [&](auto&& visit) {
    for (const petri::Alarm& alarm : history) visit(alarm);
    if (next != nullptr) visit(*next);
  };
  size_t bound = 0;  // every alarm adds at most its peer, its symbol and ":,|"
  for_each_alarm([&](const petri::Alarm& a) {
    bound += a.peer.size() + a.symbol.size() + 3;
  });
  std::string key;
  key.reserve(bound);
  const std::string* last = nullptr;
  while (true) {
    const std::string* peer = nullptr;
    for_each_alarm([&](const petri::Alarm& a) {
      if ((last == nullptr || a.peer > *last) &&
          (peer == nullptr || a.peer < *peer)) {
        peer = &a.peer;
      }
    });
    if (peer == nullptr) return key;
    key += *peer;
    key += ':';
    for_each_alarm([&](const petri::Alarm& a) {
      if (a.peer != *peer) return;
      key += a.symbol;
      key += ',';
    });
    key += '|';
    last = peer;
  }
}

}  // namespace

std::string ObservationPrefixKey(const petri::AlarmSequence& history) {
  return PrefixKey(history, nullptr);
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
    return FailedPreconditionError(
        "session " + std::string(s.name()) + " was admitted for model " +
        s.model_name + ", which is no longer registered");
  }
  if (it->second->fingerprint != s.model_fingerprint) {
    return FailedPreconditionError(
        "session " + std::string(s.name()) +
        " was admitted for a structurally different registration of model " +
        s.model_name +
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
  auto s = std::make_unique<Session>(session, *mit->second,
                                     options_.session_max_facts);
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
  (s.diagnoser.hibernated() ? hibernated_ : resident_lru_).erase(s.lru_pos);
  store_->Erase(s.store_key);
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
  return it != sessions_.end() && !it->second->diagnoser.hibernated();
}

StatusOr<size_t> DiagnosisService::NumObserved(
    const std::string& session) const {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return NotFoundError("unknown session: " + session);
  }
  return it->second->diagnoser.num_observed();
}

const SubqueryCache* DiagnosisService::cache(const std::string& model) const {
  auto it = models_.find(model);
  return it == models_.end() ? nullptr : &it->second->cache;
}

Status DiagnosisService::SetSessionBudget(const std::string& session,
                                          size_t max_facts) {
  Session* s = FindSession(session);
  if (s == nullptr) return NotFoundError("unknown session: " + session);
  s->diagnoser.set_max_facts(max_facts);
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
  const std::string key = PrefixKey(s->diagnoser.history(), &alarm);

  std::string encoded;
  if (options_.cache_bytes > 0 && entry->cache.Get(key, &encoded)) {
    DQSQ_RETURN_IF_ERROR(s->diagnoser.ObserveCached(alarm, std::move(encoded)));
    static Counter& hits =
        MetricsRegistry::Global().GetCounter("diag.service.cache_hits");
    hits.Increment();
    return s->diagnoser.Current();  // decodes the cached bytes, once
  }
  static Counter& misses =
      MetricsRegistry::Global().GetCounter("diag.service.cache_misses");
  misses.Increment();

  StatusOr<std::vector<Explanation>> result = s->diagnoser.Observe(alarm);
  if (!result.ok()) return result;  // Observe is transactional: no cleanup
  if (options_.cache_bytes > 0) {
    entry->cache.Put(key, *s->diagnoser.encoded_current());
  }
  return result;
}

StatusOr<std::vector<Explanation>> DiagnosisService::Current(
    const std::string& session) {
  Session* s = FindSession(session);
  if (s == nullptr) return NotFoundError("unknown session: " + session);
  DQSQ_RETURN_IF_ERROR(EnsureResident(*s));
  TouchResident(*s);
  return s->diagnoser.Current();
}

Status DiagnosisService::Hibernate(const std::string& session) {
  Session* s = FindSession(session);
  if (s == nullptr) return NotFoundError("unknown session: " + session);
  return HibernateSession(*s);
}

std::string DiagnosisService::SerializeSession(const Session& s) {
  DQSQ_CHECK(!s.diagnoser.hibernated());
  const petri::AlarmSequence& history = s.diagnoser.history();
  const std::string* current = s.diagnoser.encoded_current();
  // Str writes a U64 length before its bytes.
  size_t size = 8 + s.name().size() + 8 + s.model_name.size() + 8 + 8 + 1;
  for (const petri::Alarm& alarm : history) {
    size += 16 + alarm.symbol.size() + alarm.peer.size();
  }
  if (current != nullptr) size += current->size();

  dist::SnapshotWriter w;
  w.Reserve(size);
  w.Str(s.name());
  w.Str(s.model_name);
  w.U64(s.model_fingerprint);
  w.U64(history.size());
  for (const petri::Alarm& alarm : history) {
    w.Str(alarm.symbol);
    w.Str(alarm.peer);
  }
  w.Bool(current != nullptr);
  std::string image = w.Take();
  if (current != nullptr) image += *current;  // the answer bytes, verbatim
  return image;
}

Status DiagnosisService::HibernateSession(Session& s) {
  if (s.diagnoser.hibernated()) return Status::Ok();
  store_->Put(s.store_key, SerializeSession(s));
  hibernated_.splice(hibernated_.begin(), resident_lru_, s.lru_pos);
  s.diagnoser.Hibernate();
  static Counter& hibernated =
      MetricsRegistry::Global().GetCounter("diag.service.sessions_hibernated");
  hibernated.Increment();
  UpdateResidentGauge(resident_lru_.size());
  return Status::Ok();
}

Status DiagnosisService::EnsureResident(Session& s) {
  if (!s.diagnoser.hibernated()) return Status::Ok();
  // Admission gate for waking: the model named at hibernation time must
  // still be registered with the same structure. A plant redeployed with
  // a different net between hibernate and wake fails cleanly here —
  // replaying the stored history into it would produce explanations for
  // the wrong plant.
  DQSQ_ASSIGN_OR_RETURN(ModelEntry * entry, ResolveModel(s));
  std::optional<std::string> image = store_->Get(s.store_key);
  if (!image.has_value()) {
    return InternalError("hibernation image missing for session " +
                         std::string(s.name()));
  }
  // The store is caller-supplied: an image that is not this session's
  // fails the call, not the process. The image is checked against the
  // session in place; only its answer bytes are kept.
  auto foreign = [&] {
    return InternalError("hibernation image under " + s.store_key +
                         " is not session " + std::string(s.name()) + "'s");
  };
  dist::SnapshotReader r(*image);
  const petri::AlarmSequence& history = s.diagnoser.history();
  if (r.StrView() != s.name()) return foreign();
  const std::string_view model = r.StrView();
  const uint64_t fingerprint = r.U64();
  if (r.U64() != history.size()) return foreign();
  if (model != s.model_name || fingerprint != s.model_fingerprint) {
    return FailedPreconditionError(
        "hibernation image of session " + std::string(s.name()) +
        " was taken under model " + std::string(model) +
        " (fingerprint mismatch with its admission record)");
  }
  for (const petri::Alarm& alarm : history) {
    if (r.StrView() != alarm.symbol || r.StrView() != alarm.peer) {
      return foreign();
    }
  }
  const bool has_answer = r.Bool();
  const size_t answer_at = r.position();
  if (has_answer) SkipExplanations(r);
  if (!r.AtEnd()) return foreign();
  std::optional<std::string> answer;
  if (has_answer) answer = std::move(image->erase(0, answer_at));
  s.diagnoser.Wake(entry->model, std::move(answer));
  resident_lru_.splice(resident_lru_.begin(), hibernated_, s.lru_pos);
  static Counter& restored =
      MetricsRegistry::Global().GetCounter("diag.service.sessions_restored");
  restored.Increment();
  Status cap = EnforceResidencyCap(&s);
  UpdateResidentGauge(resident_lru_.size());
  return cap;
}

void DiagnosisService::TouchResident(Session& s) {
  DQSQ_CHECK(!s.diagnoser.hibernated());
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
