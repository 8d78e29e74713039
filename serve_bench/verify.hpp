// Output verification. The oracle is plain-text evaluation
// (Session::Evaluate over a Document built from text) of texts rebuilt
// with testing::ModelEvalCde, which replays every acknowledged edit of a
// document in the order of the shard versions its commits published.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/span.hpp"
#include "net/wire.hpp"
#include "workloads.hpp"

namespace spanners::bench {

/// One document's answer within a QUERY response, reduced to what the
/// checks compare: the exact tuple count and a hash of the tuples sent.
struct DocObservation {
  uint32_t pattern = 0;
  ClusterDocId doc = 0;
  uint64_t shard_version = 0;  ///< the doc's shard version in the response snapshot
  uint64_t num_tuples = 0;
  uint64_t tuples_hash = 0;
};

/// An acknowledged edit: the version its commit published on the doc's shard.
struct EditAck {
  ClusterDocId doc = 0;
  uint64_t shard_version = 0;
  std::string cde;
};

uint64_t TuplesHash(const std::vector<SpanTuple>& tuples);

/// Appends the observations of \p response (a QUERY with \p pattern).
void Observe(const QueryResponse& response, uint32_t pattern,
             std::vector<DocObservation>* out);

struct VerifyReport {
  uint64_t observations = 0;    ///< document answers checked for consistency
  uint64_t distinct_keys = 0;   ///< (pattern, doc, doc version) triples seen
  uint64_t oracle_checks = 0;   ///< triples recomputed by the oracle
  uint64_t mismatches = 0;
  std::vector<std::string> messages;  ///< the first few mismatches

  void Mismatch(const std::string& message);
  void Add(const VerifyReport& other);
};

/// Checks that every answer for one (pattern, doc, doc version) agrees, and
/// recomputes every \p must_check observation plus up to \p sample_keys
/// other triples (chosen by \p seed) with the oracle.
VerifyReport Verify(const Workload& workload, const std::vector<DocObservation>& observations,
                    const std::vector<DocObservation>& must_check,
                    std::vector<EditAck> acks, std::size_t sample_keys, uint64_t seed);

}  // namespace spanners::bench
