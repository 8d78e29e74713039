#include "workloads.hpp"

#include <algorithm>
#include <cmath>

namespace spanners::bench {
namespace {

constexpr std::size_t kKiB = 1024;

/// Wraps \p body so the spanner matches anywhere in a document.
std::string Anywhere(const std::string& body) {
  return "(.|\\n)*" + body + "(.|\\n)*";
}

/// hot-read: boilerplate paragraphs with common words, so every pattern
/// has tens of matches per document and results stay small.
void BuildHotRead(Workload* w, Rng& rng) {
  w->loop = LoopKind::kOpen;
  w->connections = 2;
  // About 20% of this mix's capacity when the benchmark was introduced
  // (README: at 50%, queueing amplified the box's speed drift).
  w->rate_per_s = 200;
  w->patterns = {Anywhere("{x: the}"), Anywhere("{x: fox}"),
                 Anywhere("{x: rain}"), Anywhere("{x: (cat|dog)}")};
  for (int i = 0; i < 64; ++i) {
    // The template paragraph is 135 characters: 30-44 of them is 4-6 KB.
    // Lengths are fixed per index so every seed serves the same volume.
    w->corpus.push_back(BoilerplateText(rng, 30 + i % 15, 0.03));
  }
  w->edit_fraction = 0.02;
  w->max_tuples = 16;
  w->docs_per_read = 0;
  w->max_edit_piece = 32;
  w->warm_docs = 0;
}

/// cold-scan: access logs, each pattern selecting one (host, user) pair --
/// a few matches per document, but a full matrix fill on every miss.
void BuildColdScan(Workload* w, Rng& rng) {
  w->loop = LoopKind::kClosed;
  w->connections = 4;
  for (int pair = 0; pair < 512; pair += 4) {
    const int host = pair / 32;
    const int user = pair % 32 + (pair / 32) % 2;
    w->patterns.push_back(Anywhere("host-" + std::to_string(host) + " user-" +
                                   std::to_string(user) + " {x: GET /[^ ]*} "));
  }
  for (int i = 0; i < 16; ++i) {
    std::string log = SyntheticLog(rng, 4 * kKiB / 44);
    log.resize(std::min(log.size(), 4 * kKiB));
    w->corpus.push_back(std::move(log));
  }
  w->edit_fraction = 0.05;
  w->max_tuples = 16;
  w->docs_per_read = 2;
  w->zipf = true;
  w->max_edit_piece = 64;
  w->warm_docs = 2;
}

/// edit-storm: large, compressible sequences under a commit-heavy mix.
void BuildEditStorm(Workload* w, Rng& rng) {
  w->loop = LoopKind::kClosed;
  w->connections = 4;
  w->patterns = {Anywhere("{x: gattac}")};
  for (int i = 0; i < 8; ++i) {
    w->corpus.push_back(DnaLike(rng, 32 * kKiB, 512, 128));
  }
  w->edit_fraction = 1.0;
  w->read_after_edit = true;
  w->max_tuples = 16;
  w->docs_per_read = 1;
  w->max_edit_piece = 256;
  w->warm_docs = 8;
}

/// topk-extract: many-match motifs (one letter class in a 3-letter motif,
/// about one match in 32 positions), so every result holds ~2k tuples of
/// which the client asks for 100.
void BuildTopkExtract(Workload* w, Rng& rng) {
  w->loop = LoopKind::kClosed;
  w->connections = 4;
  static const char* kClasses[] = {"[ac]", "[ag]", "[at]", "[cg]", "[ct]", "[gt]"};
  static const char kBases[] = "acgt";
  for (int m = 0; static_cast<int>(w->patterns.size()) < 64; ++m) {
    const int slot = m % 3;
    const std::string cls = kClasses[(m / 3) % 6];
    const char first = kBases[(m / 18) % 4];
    const char second = kBases[(m / 72) % 4];
    std::string motif;
    int fixed = 0;
    for (int p = 0; p < 3; ++p) {
      if (p == slot) {
        motif += cls;
      } else {
        motif += fixed++ == 0 ? first : second;
      }
    }
    w->patterns.push_back(Anywhere("{x: " + motif + "}"));
  }
  for (int i = 0; i < 64; ++i) {
    w->corpus.push_back(DnaLike(rng, 32 * kKiB, 64, 64));
  }
  w->edit_fraction = 0.05;
  w->max_tuples = 100;
  w->docs_per_read = 1;
  w->max_edit_piece = 64;
  w->warm_docs = 1;
}

/// FNV-1a: a seed mix that, unlike std::hash, is fixed across toolchains.
uint64_t NameHash(const std::string& name) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : name) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

std::vector<double> ZipfCdf(std::size_t n) {
  std::vector<double> cdf;
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf.push_back(total);
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

void AppendU64(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(value >> (8 * i)));
}

void AppendBytes(std::string* out, const std::string& bytes) {
  AppendU64(out, bytes.size());
  *out += bytes;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  auto workload = std::make_unique<Workload>();
  workload->name = name;
  Rng rng(seed * 0x100000001B3ull + NameHash(name));
  if (name == "hot-read") {
    BuildHotRead(workload.get(), rng);
  } else if (name == "cold-scan") {
    BuildColdScan(workload.get(), rng);
  } else if (name == "edit-storm") {
    BuildEditStorm(workload.get(), rng);
  } else if (name == "topk-extract") {
    BuildTopkExtract(workload.get(), rng);
  } else {
    return nullptr;
  }
  return workload;
}

std::vector<WriteBatch> IngestBatches(const Workload& workload) {
  constexpr std::size_t kBatchBytes = 4 << 20;
  std::vector<WriteBatch> batches(1);
  std::size_t bytes = 0;
  for (const std::string& text : workload.corpus) {
    if (bytes + text.size() > kBatchBytes && !batches.back().empty()) {
      batches.emplace_back();
      bytes = 0;
    }
    batches.back().Insert(text);
    bytes += text.size();
  }
  return batches;
}

std::vector<Request> WarmRequests(const Workload& workload) {
  std::vector<Request> out;
  for (uint32_t p = 0; p < workload.patterns.size(); ++p) {
    Request request;
    request.pattern = p;
    request.max_tuples = workload.max_tuples;
    for (ClusterDocId doc = 1; doc <= workload.warm_docs; ++doc) {
      request.docs.push_back(doc);
    }
    out.push_back(std::move(request));
  }
  return out;
}

RequestStream::RequestStream(const Workload& workload, unsigned connection,
                             uint64_t seed)
    : workload_(workload),
      rng_(seed * 0x9E3779B97F4A7C15ull + 1000003ull * (connection + 1)) {
  for (std::size_t i = connection; i < workload.corpus.size();
       i += workload.connections) {
    owned_.push_back(i);
    length_.push_back(workload.corpus[i].size());
  }
  if (workload.zipf) {
    pattern_cdf_ = ZipfCdf(workload.patterns.size());
    doc_cdf_ = ZipfCdf(workload.corpus.size());
  }
}

Request RequestStream::Next() {
  if (pending_read_ != 0) {
    const ClusterDocId doc = pending_read_;
    pending_read_ = 0;
    return MakeRead(doc);
  }
  if (!owned_.empty() && rng_.NextDouble() < workload_.edit_fraction) {
    Request edit = MakeEdit();
    if (workload_.read_after_edit) pending_read_ = edit.doc;
    return edit;
  }
  return MakeRead(0);
}

Request RequestStream::MakeEdit() {
  const std::size_t k = next_owned_++ % owned_.size();
  const std::size_t index = owned_[k];
  const std::size_t initial = workload_.corpus[index].size();
  std::size_t& length = length_[k];
  const std::size_t piece =
      std::min<std::size_t>(length, 1 + rng_.NextBelow(workload_.max_edit_piece));
  // Lengths stay within [initial/2, 2*initial]: a random walk with equal
  // grow and shrink odds, reflected at either edge.
  const bool can_grow = length + piece <= 2 * initial;
  const bool can_shrink = length - piece >= initial / 2;
  const uint64_t op = rng_.NextBelow(4);
  const bool shrink = can_shrink && (op < 2 || !can_grow);
  const uint64_t i = 1 + rng_.NextBelow(length - piece + 1);
  const uint64_t j = i + piece - 1;
  const std::string d = "D" + std::to_string(index + 1);
  Request request;
  request.kind = Request::Kind::kEdit;
  request.doc = index + 1;
  if (shrink) {
    request.cde = "delete(" + d + ", " + std::to_string(i) + ", " + std::to_string(j) + ")";
    length -= piece;
    return request;
  }
  const uint64_t at = 1 + rng_.NextBelow(length + 1);
  if (op == 2) {
    request.cde = "copy(" + d + ", " + std::to_string(i) + ", " + std::to_string(j) +
                  ", " + std::to_string(at) + ")";
  } else {
    request.cde = "insert(" + d + ", extract(" + d + ", " + std::to_string(i) + ", " +
                  std::to_string(j) + "), " + std::to_string(at) + ")";
  }
  length += piece;
  return request;
}

std::size_t RequestStream::Draw(const std::vector<double>& cdf, std::size_t n) {
  if (cdf.empty()) return rng_.NextBelow(n);
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng_.NextDouble());
  return std::min<std::size_t>(it - cdf.begin(), n - 1);
}

Request RequestStream::MakeRead(ClusterDocId only_doc) {
  Request request;
  request.kind = Request::Kind::kQuery;
  request.max_tuples = workload_.max_tuples;
  request.pattern = static_cast<uint32_t>(Draw(pattern_cdf_, workload_.patterns.size()));
  if (only_doc != 0) {
    request.docs.push_back(only_doc);
    return request;
  }
  const std::size_t n = workload_.corpus.size();
  while (request.docs.size() < workload_.docs_per_read) {
    const ClusterDocId doc = 1 + Draw(doc_cdf_, n);
    if (std::find(request.docs.begin(), request.docs.end(), doc) == request.docs.end()) {
      request.docs.push_back(doc);
    }
  }
  return request;
}

namespace {

/// The first requests of the merged stream that \p keep accepts, until
/// \p count are kept.
template <typename Keep>
std::vector<Request> Merged(const Workload& workload, uint64_t seed, std::size_t count,
                            Keep keep) {
  std::vector<RequestStream> streams;
  for (unsigned c = 0; c < workload.connections; ++c) {
    streams.emplace_back(workload, c, seed);
  }
  std::vector<Request> out;
  for (std::size_t i = 0; out.size() < count; ++i) {
    Request request = streams[i % streams.size()].Next();
    if (keep(request)) out.push_back(std::move(request));
  }
  return out;
}

}  // namespace

std::vector<Request> MergedRequests(const Workload& workload, uint64_t seed,
                                    std::size_t count) {
  return Merged(workload, seed, count, [](const Request&) { return true; });
}

std::vector<Request> RecoveryEdits(const Workload& workload, uint64_t seed,
                                   std::size_t count) {
  return Merged(workload, seed, count,
                [](const Request& r) { return r.kind == Request::Kind::kEdit; });
}

std::string InputsDump(const Workload& workload, uint64_t seed,
                       std::size_t requests_per_connection) {
  std::string out;
  AppendBytes(&out, workload.name);
  for (const std::string& pattern : workload.patterns) AppendBytes(&out, pattern);
  for (const std::string& text : workload.corpus) AppendBytes(&out, text);
  for (unsigned c = 0; c < workload.connections; ++c) {
    RequestStream stream(workload, c, seed);
    for (std::size_t i = 0; i < requests_per_connection; ++i) {
      const Request request = stream.Next();
      out.push_back(static_cast<char>(request.kind));
      AppendU64(&out, request.pattern);
      AppendU64(&out, request.max_tuples);
      AppendU64(&out, request.docs.size());
      for (ClusterDocId doc : request.docs) AppendU64(&out, doc);
      AppendU64(&out, request.doc);
      AppendBytes(&out, request.cde);
    }
  }
  return out;
}

}  // namespace spanners::bench
