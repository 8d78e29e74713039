#include "verify.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "engine/document.hpp"
#include "engine/session.hpp"
#include "testing/cde_model.hpp"

namespace spanners::bench {
namespace {

struct Key {
  uint32_t pattern = 0;
  ClusterDocId doc = 0;
  uint64_t edit_index = 0;  ///< acknowledged edits of doc the answer reflects
  auto operator<=>(const Key&) const = default;
};

struct Answer {
  uint64_t num_tuples = 0;
  uint64_t tuples_hash = 0;
  bool operator==(const Answer&) const = default;
};

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdull;
}

std::string Describe(const Key& key) {
  return "pattern " + std::to_string(key.pattern) + " D" + std::to_string(key.doc) +
         " after " + std::to_string(key.edit_index) + " edit(s)";
}

}  // namespace

void VerifyReport::Mismatch(const std::string& message) {
  ++mismatches;
  if (messages.size() < 8) messages.push_back(message);
}

void VerifyReport::Add(const VerifyReport& other) {
  observations += other.observations;
  distinct_keys += other.distinct_keys;
  oracle_checks += other.oracle_checks;
  mismatches += other.mismatches;
  for (const std::string& m : other.messages) {
    if (messages.size() < 8) messages.push_back(m);
  }
}

uint64_t TuplesHash(const std::vector<SpanTuple>& tuples) {
  uint64_t h = 0x243F6A8885A308D3ull;
  for (const SpanTuple& tuple : tuples) {
    for (std::size_t v = 0; v < tuple.arity(); ++v) {
      const std::optional<Span>& span = tuple[v];
      h = Mix(h, span.has_value() ? (static_cast<uint64_t>(span->begin) << 32) ^
                                  static_cast<uint64_t>(span->end)
                            : ~0ull);
    }
    h = Mix(h, 0xA5);
  }
  return h;
}

void Observe(const QueryResponse& response, uint32_t pattern,
             std::vector<DocObservation>* out) {
  const std::size_t shards = response.snapshot_versions.size();
  for (const WireDocResult& result : response.results) {
    if (!result.ok || shards == 0) continue;  // errors are counted by the caller
    DocObservation obs;
    obs.pattern = pattern;
    obs.doc = result.doc;
    obs.shard_version = response.snapshot_versions[(result.doc - 1) % shards];
    obs.num_tuples = result.num_tuples;
    obs.tuples_hash = TuplesHash(result.tuples);
    out->push_back(obs);
  }
}

VerifyReport Verify(const Workload& workload, const std::vector<DocObservation>& observations,
                    const std::vector<DocObservation>& must_check,
                    std::vector<EditAck> acks, std::size_t sample_keys, uint64_t seed) {
  VerifyReport report;
  const std::size_t num_docs = workload.corpus.size();

  // Per-document edit history in publication order.
  std::sort(acks.begin(), acks.end(), [](const EditAck& a, const EditAck& b) {
    return a.doc != b.doc ? a.doc < b.doc : a.shard_version < b.shard_version;
  });
  std::vector<std::vector<const EditAck*>> history(num_docs + 1);
  for (const EditAck& ack : acks) {
    if (ack.doc == 0 || ack.doc > num_docs) {
      report.Mismatch("acknowledged edit of unknown D" + std::to_string(ack.doc));
      continue;
    }
    std::vector<const EditAck*>& h = history[ack.doc];
    if (!h.empty() && h.back()->shard_version == ack.shard_version) {
      report.Mismatch("two edits of D" + std::to_string(ack.doc) +
                        " acknowledged at one version");
    }
    h.push_back(&ack);
  }
  auto key_of = [&](const DocObservation& obs) {
    const std::vector<const EditAck*>& h = history[obs.doc];
    const auto it = std::upper_bound(
        h.begin(), h.end(), obs.shard_version,
        [](uint64_t v, const EditAck* ack) { return v < ack->shard_version; });
    return Key{obs.pattern, obs.doc, static_cast<uint64_t>(it - h.begin())};
  };

  // Consistency: one answer per (pattern, doc, doc version).
  std::map<Key, Answer> seen;
  std::vector<Key> required;
  auto record = [&](const DocObservation& obs) {
    if (obs.doc == 0 || obs.doc > num_docs || obs.pattern >= workload.patterns.size()) {
      report.Mismatch("answer for unknown D" + std::to_string(obs.doc));
      return Key{};
    }
    ++report.observations;
    const Key key = key_of(obs);
    const Answer answer{obs.num_tuples, obs.tuples_hash};
    const auto [it, inserted] = seen.emplace(key, answer);
    if (!inserted && !(it->second == answer)) {
      report.Mismatch("inconsistent answers for " + Describe(key));
    }
    return key;
  };
  for (const DocObservation& obs : observations) record(obs);
  for (const DocObservation& obs : must_check) required.push_back(record(obs));
  report.distinct_keys = seen.size();

  // Oracle sample: the required keys plus the sample_keys others that hash
  // lowest under the seed.
  std::vector<std::pair<uint64_t, Key>> ranked;
  for (const auto& [key, answer] : seen) {
    if (std::find(required.begin(), required.end(), key) != required.end()) continue;
    const uint64_t h =
        Mix(Mix(Mix(seed, key.pattern), key.doc), key.edit_index);
    ranked.emplace_back(h, key);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<Key> check = required;
  for (std::size_t i = 0; i < ranked.size() && i < sample_keys; ++i) {
    check.push_back(ranked[i].second);
  }
  std::sort(check.begin(), check.end(), [](const Key& a, const Key& b) {
    return a.doc != b.doc ? a.doc < b.doc : a.edit_index < b.edit_index;
  });
  check.erase(std::unique(check.begin(), check.end()), check.end());

  Session session;
  std::vector<std::optional<std::string>> texts(num_docs);
  ClusterDocId current_doc = 0;
  uint64_t applied = 0;
  for (const Key& key : check) {
    if (key.doc == 0) continue;
    if (key.doc != current_doc) {
      if (current_doc != 0) texts[current_doc - 1].reset();
      current_doc = key.doc;
      texts[key.doc - 1] = workload.corpus[key.doc - 1];
      applied = 0;
    }
    const std::vector<const EditAck*>& h = history[key.doc];
    for (; applied < key.edit_index; ++applied) {
      Expected<std::string> next = testing::ModelEvalCde(texts, h[applied]->cde);
      if (!next.ok()) {
        report.Mismatch("model rejects acknowledged edit of D" +
                          std::to_string(key.doc) + ": " + next.error());
        break;
      }
      texts[key.doc - 1] = std::move(*next);
    }
    if (applied != key.edit_index) continue;
    Expected<const CompiledQuery*> query = session.Compile(workload.patterns[key.pattern]);
    if (!query.ok()) {
      report.Mismatch("oracle cannot compile pattern " + std::to_string(key.pattern));
      continue;
    }
    Expected<SpanRelation> expected =
        session.Evaluate(**query, Document::FromView(*texts[key.doc - 1]));
    if (!expected.ok()) {
      report.Mismatch("oracle failed on " + Describe(key) + ": " + expected.error());
      continue;
    }
    std::vector<SpanTuple> sent;
    for (const SpanTuple& tuple : *expected) {
      if (sent.size() >= workload.max_tuples) break;
      sent.push_back(tuple);
    }
    ++report.oracle_checks;
    const Answer want{expected->size(), TuplesHash(sent)};
    if (!(seen.at(key) == want)) {
      report.Mismatch("server disagrees with the oracle on " + Describe(key) + " (" +
                        std::to_string(seen.at(key).num_tuples) + " vs " +
                        std::to_string(want.num_tuples) + " tuples)");
    }
  }
  return report;
}

}  // namespace spanners::bench
