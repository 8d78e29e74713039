// The four serving workloads: corpus, patterns and request streams, all
// generated from one seed with the util/random.hpp generators. The same
// definitions drive the wire phases (serve_load.cpp) and the in-process
// replay (replay.cpp), so both see identical inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "util/random.hpp"

namespace spanners::bench {

enum class LoopKind { kOpen, kClosed };

/// One request of a connection's stream.
struct Request {
  enum class Kind : uint8_t { kQuery, kEdit };
  Kind kind = Kind::kQuery;
  uint32_t pattern = 0;             ///< kQuery: index into Workload::patterns
  std::vector<ClusterDocId> docs;   ///< kQuery: empty = every live document
  uint32_t max_tuples = 0;          ///< kQuery
  ClusterDocId doc = 0;             ///< kEdit target
  std::string cde;                  ///< kEdit expression (cluster ids)
};

/// A workload's shape. Sizes are fixed per workload; only the generated
/// contents depend on the seed. Corpus document i is ingested as cluster
/// document i + 1 (a fresh cluster hands out ids in insertion order).
struct Workload {
  std::string name;
  LoopKind loop = LoopKind::kClosed;
  unsigned connections = 4;
  double rate_per_s = 0;            ///< open loop: arrivals per second, all connections
  std::vector<std::string> patterns;
  std::vector<std::string> corpus;

  double edit_fraction = 0.0;       ///< share of stream draws that are COMMITs
  bool read_after_edit = false;     ///< each edit is followed by a read of that doc
  uint32_t max_tuples = 16;
  unsigned docs_per_read = 0;       ///< 0 = all-document QUERY
  bool zipf = false;                ///< Zipf(1.0) choice of pattern and documents, else uniform
  std::size_t max_edit_piece = 32;  ///< longest copied/pasted/deleted factor
  unsigned warm_docs = 0;           ///< warm pass reads docs 1..warm_docs (0 = all-document QUERY)
};

/// Builds workload \p name for \p seed; nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// The corpus as COMMIT batches, each well under the 16 MiB frame limit.
std::vector<WriteBatch> IngestBatches(const Workload& workload);

/// The warm pass that ends set-up: every pattern once over the workload's
/// read set, so first-sight compiles and cold fills stay out of the
/// measured phase.
std::vector<Request> WarmRequests(const Workload& workload);

/// The deterministic request stream of one connection. Connection c owns
/// the documents whose corpus index is congruent to c modulo the connection
/// count; only the owner edits them, so the stream tracks their lengths and
/// every edit it emits is in range. Owned documents are edited round-robin,
/// so two edits of one document are never in flight together.
class RequestStream {
 public:
  RequestStream(const Workload& workload, unsigned connection, uint64_t seed);

  Request Next();

 private:
  Request MakeEdit();
  Request MakeRead(ClusterDocId only_doc);
  /// An index below \p n: uniform for an empty \p cdf, else drawn from it.
  std::size_t Draw(const std::vector<double>& cdf, std::size_t n);

  const Workload& workload_;
  std::vector<std::size_t> owned_;    ///< corpus indices this stream edits
  std::vector<std::size_t> length_;   ///< current length per owned doc
  std::vector<double> pattern_cdf_;  ///< empty = uniform choice
  std::vector<double> doc_cdf_;
  std::size_t next_owned_ = 0;
  ClusterDocId pending_read_ = 0;     ///< read_after_edit: doc to read next
  Rng rng_;
};

/// The round-robin merge of every connection's stream (request i comes
/// from connection i % connections); the traced passes replay this order.
std::vector<Request> MergedRequests(const Workload& workload, uint64_t seed,
                                    std::size_t count);

/// The first \p count edits of the merged stream, in order.
std::vector<Request> RecoveryEdits(const Workload& workload, uint64_t seed,
                                   std::size_t count);

/// A canonical byte dump of the inputs -- corpus, patterns, and the first
/// \p requests_per_connection requests of every stream -- for hashing.
std::string InputsDump(const Workload& workload, uint64_t seed,
                       std::size_t requests_per_connection);

}  // namespace spanners::bench
