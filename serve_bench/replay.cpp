#include "replay.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>

#include "net/wire.hpp"
#include "server/cluster.hpp"
#include "util/metrics.hpp"

namespace spanners::bench {
namespace {

/// Spans kept in memory, written out when the replay ends.
class SpanLog {
 public:
  struct Record {
    const char* name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int parent = -1;
    uint32_t request = 0;
  };

  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log), id_(log.Begin(name)) {}
    ~Scope() { log_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_;
  };

  void set_request(uint32_t request) { request_ = request; }
  const std::vector<Record>& records() const { return records_; }

 private:
  int Begin(const char* name) {
    records_.push_back(Record{name, NowNanos(), 0, open_, request_});
    open_ = static_cast<int>(records_.size()) - 1;
    return open_;
  }
  void End(int id) {
    records_[id].end_ns = NowNanos();
    open_ = records_[id].parent;
  }

  std::vector<Record> records_;
  int open_ = -1;
  uint32_t request_ = 0;
};

/// The options examples/spanner_server.cpp builds its cluster with for
/// the benchmark's fixed --shards=2.
ClusterOptions ServerClusterOptions() {
  ClusterOptions options;
  options.num_shards = 2;
  options.store.gc_min_garbage_nodes = 256;
  options.store.gc_min_garbage_ratio = 0.25;
  return options;
}

/// One QUERY the way SpannerServer::Process serves it.
Status ReplayQuery(ShardedStore& store, const Workload& workload, const Request& request,
                   SpanLog& log, ReplayReport* report) {
  const std::string& pattern = workload.patterns[request.pattern];
  SpanLog::Scope root(log, "request");
  ClusterSnapshot snapshot;
  {
    SpanLog::Scope span(log, "cluster.snapshot");
    snapshot = store.Snapshot();
  }
  QueryResponse response;
  response.snapshot_versions = snapshot.versions();
  auto add_result = [&](ClusterDocId doc, const Expected<SpanRelation>& result) {
    WireDocResult out;
    out.doc = doc;
    if (!result.ok()) {
      out.ok = false;
      out.error = result.error();
    } else {
      out.num_tuples = result->size();
      for (const SpanTuple& tuple : *result) {
        if (out.tuples.size() >= request.max_tuples) break;
        out.tuples.push_back(tuple);
      }
    }
    response.results.push_back(std::move(out));
  };
  const std::size_t shards = store.num_shards();
  if (request.docs.empty()) {
    const std::vector<ClusterDocId> docs = snapshot.documents();
    std::vector<Expected<SpanRelation>> results(docs.size(), Status::Error("not evaluated"));
    for (std::size_t s = 0; s < shards; ++s) {
      if (snapshot.shard(s).num_documents() == 0) continue;
      Expected<const CompiledQuery*> query = Status::Error("not run");
      {
        SpanLog::Scope span(log, "engine.compile");
        query = store.session(s).Compile(pattern);
      }
      if (!query.ok()) return query.status();
      std::vector<Expected<SpanRelation>> shard_results;
      {
        SpanLog::Scope span(log, "store.read");
        shard_results = store.shard(s).QueryAll(store.session(s), **query, snapshot.shard(s));
      }
      const std::vector<StoreDoc>& shard_docs = snapshot.shard(s).documents();
      for (std::size_t k = 0; k < shard_docs.size(); ++k) {
        const ClusterDocId id = ShardedStore::ClusterId(shard_docs[k].id, s, shards);
        const auto it = std::lower_bound(docs.begin(), docs.end(), id);
        results[static_cast<std::size_t>(it - docs.begin())] = std::move(shard_results[k]);
      }
    }
    for (std::size_t i = 0; i < docs.size(); ++i) add_result(docs[i], results[i]);
  } else {
    for (ClusterDocId doc : request.docs) {
      const std::size_t s = store.ShardOf(doc);
      Expected<const CompiledQuery*> query = Status::Error("not run");
      {
        SpanLog::Scope span(log, "engine.compile");
        query = store.session(s).Compile(pattern);
      }
      if (!query.ok()) return query.status();
      Expected<SpanRelation> result = Status::Error("not run");
      {
        SpanLog::Scope span(log, "store.read");
        result = store.session(s).Evaluate(**query, snapshot.shard(s),
                                           ShardedStore::LocalId(doc, shards));
      }
      add_result(doc, result);
    }
  }
  std::string payload;
  {
    SpanLog::Scope span(log, "net.encode");
    payload = EncodeQueryResponse(response);
  }
  {
    SpanLog::Scope span(log, "net.decode");
    if (Expected<QueryResponse> decoded = DecodeQueryResponse(payload); !decoded.ok()) {
      return decoded.status();
    }
  }
  if (report != nullptr) report->response_bytes.push_back(static_cast<double>(payload.size()));
  for (const WireDocResult& result : response.results) {
    if (!result.ok) return Status::Error("replay query failed: " + result.error);
  }
  return Status::Ok();
}

Status ReplayEdit(ShardedStore& store, const Request& request, SpanLog& log) {
  SpanLog::Scope root(log, "request");
  WriteBatch batch;
  batch.Edit(request.doc, request.cde);
  SpanLog::Scope span(log, "cluster.commit");
  Expected<ClusterCommitReceipt> receipt = store.Commit(batch);
  return receipt.ok() ? Status::Ok() : receipt.status();
}

void WriteChromeTrace(const std::vector<SpanLog::Record>& records,
                      const std::string& path) {
  std::ofstream out(path);
  const uint64_t base = records.empty() ? 0 : records.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char line[256];
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanLog::Record& r = records[i];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"cat\":\"replay\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%u,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",", r.name, (r.start_ns - base) / 1e3,
                  (r.end_ns - r.start_ns) / 1e3, r.request, r.parent);
    out << line;
  }
  out << "\n]}\n";
}

}  // namespace

Expected<ReplayReport> RunReplay(const Workload& workload,
                                 const std::vector<Request>& requests,
                                 const std::string& store_dir,
                                 const std::string& trace_path) {
  Expected<std::unique_ptr<ShardedStore>> opened =
      ShardedStore::Open(store_dir, ServerClusterOptions());
  if (!opened.ok()) return opened.status();
  ShardedStore& store = **opened;
  ReplayReport report;

  // Set-up exactly as the wire phases do it: ingest, then the warm pass,
  // timing each pattern's first compile on each shard.
  ClusterDocId next_id = 1;
  for (const WriteBatch& batch : IngestBatches(workload)) {
    Expected<ClusterCommitReceipt> receipt = store.Commit(batch);
    if (!receipt.ok()) return receipt.status();
    for (ClusterDocId id : receipt->created) {
      if (id != next_id++) return Status::Error("replay: unexpected document ids");
    }
  }
  for (const std::string& pattern : workload.patterns) {
    for (std::size_t s = 0; s < store.num_shards(); ++s) {
      const uint64_t start = NowNanos();
      if (Expected<const CompiledQuery*> q = store.session(s).Compile(pattern); !q.ok()) {
        return q.status();
      }
      report.first_compile_us.push_back((NowNanos() - start) / 1e3);
    }
  }
  SpanLog warm_log;
  for (const Request& request : WarmRequests(workload)) {
    if (Status s = ReplayQuery(store, workload, request, warm_log, nullptr); !s.ok()) {
      return s;
    }
  }

  SpanLog log;
  for (uint32_t i = 0; i < requests.size(); ++i) {
    log.set_request(i);
    const Request& request = requests[i];
    const Status status = request.kind == Request::Kind::kEdit
                              ? ReplayEdit(store, request, log)
                              : ReplayQuery(store, workload, request, log, &report);
    if (!status.ok()) return status;
  }

  // Per-request stage durations and self times.
  const std::vector<SpanLog::Record>& records = log.records();
  std::vector<double> child_us(records.size(), 0.0);
  for (const SpanLog::Record& r : records) {
    if (r.parent >= 0) child_us[r.parent] += (r.end_ns - r.start_ns) / 1e3;
  }
  std::map<std::string, std::map<uint32_t, double>> per_request;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanLog::Record& r = records[i];
    const double us = (r.end_ns - r.start_ns) / 1e3;
    per_request[r.name][r.request] += us;
    report.stages[r.name].self_us_total += us - child_us[i];
    if (r.parent < 0 && std::string_view(r.name) == "request" &&
        requests[r.request].kind == Request::Kind::kQuery) {
      report.query_stage_sum_us.push_back(child_us[i]);
    }
  }
  for (const auto& [name, by_request] : per_request) {
    for (const auto& [request, us] : by_request) report.stages[name].call_us.push_back(us);
  }
  WriteChromeTrace(records, trace_path);
  return report;
}

}  // namespace spanners::bench
