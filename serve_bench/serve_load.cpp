// One run of one serving workload against a live example_spanner_server.
//
//   serve_load --workload=NAME --seed=N --seconds=S --server=PATH
//              --work-dir=DIR --json-out=PATH [--trace] ...
//
// Phases: set-up (spawn -> listening -> corpus acknowledged -> warm pass,
// repeated --setup-reps times on fresh directories), an unmeasured
// warm-up, the measured window, verification, and crash recovery from a
// fixed durable state (MeasureRecovery). With --trace the server runs at
// SPANNERS_TRACE=counters, METRICS is scraped at both window edges, and
// two more passes run over the first requests of the merged stream: one
// connection over the wire (tracing off, then on), and an in-process
// replay (replay.hpp).
//
// The output is raw: latency samples, counts, set-up and recovery times,
// and the verification report, as one JSON object; serve_bench.py derives
// and prints the metrics.
#include <signal.h>
#include <sys/prctl.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <latch>
#include <map>
#include <mutex>
#include <thread>

#include "example_util.hpp"
#include "net/client.hpp"
#include "replay.hpp"
#include "server_process.hpp"
#include "util/metrics.hpp"
#include "verify.hpp"
#include "workloads.hpp"

using namespace spanners;
using namespace spanners::bench;

namespace {

constexpr const char* kHost = "127.0.0.1";
constexpr unsigned kAuditEvery = 64;    // closed loop: pinned-snapshot audit cadence
constexpr unsigned kPingEvery = 100;    // traced: one PING per 100 requests
constexpr unsigned kMaxRetries = 8;     // open loop: kRetry resends before failing
constexpr double kGraceS = 1.0;         // answers later than this past the window fail
constexpr std::size_t kFinalDocs = 8;   // documents in the final-state check
constexpr std::size_t kOracleKeys = 24;  // sampled answers the oracle recomputes
constexpr std::size_t kRecoveryEdits = 16;  // edits in the crash-recovery WAL
constexpr std::size_t kPassRequests = 2000;  // traced passes: at most this many requests

void SleepUntilNs(uint64_t t) {
  const uint64_t now = NowNanos();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

struct Options {
  std::string workload;
  unsigned seed = 1;
  double seconds = 0;             // required
  double warmup_s = 2;
  std::string server;
  std::string work_dir;
  std::string json_out;
  bool trace = false;
  unsigned setup_reps = 5;
  unsigned recover_reps = 45;
  double pass_seconds = 3;        // traced wire pass: at most this long
};

/// What one connection (or one thread of it) saw.
struct Tally {
  std::vector<double> query_us, commit_us, gen_lag_us, ping_us;  // window only
  uint64_t attempted = 0, failed = 0;                             // window only
  uint64_t doc_queries = 0, tuples_sent = 0, retries = 0;         // window only
  uint64_t audit_violations = 0;
  std::vector<DocObservation> observations;  // every answer, warm-up included
  std::vector<EditAck> acks;                 // every acknowledged edit
  std::vector<std::string> errors;

  void Error(const std::string& message) {
    if (errors.size() < 4) errors.push_back(message);
  }
  void Merge(Tally&& other) {
    auto append = [](auto& to, auto& from) {
      to.insert(to.end(), std::make_move_iterator(from.begin()),
                std::make_move_iterator(from.end()));
    };
    append(query_us, other.query_us);
    append(commit_us, other.commit_us);
    append(gen_lag_us, other.gen_lag_us);
    append(ping_us, other.ping_us);
    append(observations, other.observations);
    append(acks, other.acks);
    for (std::string& e : other.errors) Error(e);
    attempted += other.attempted;
    failed += other.failed;
    doc_queries += other.doc_queries;
    tuples_sent += other.tuples_sent;
    retries += other.retries;
    audit_violations += other.audit_violations;
  }
};

/// Shared state of the measured phase. m0/m1 are written before `go`
/// opens and only read after.
struct Phase {
  const Workload& workload;
  const Options& options;
  uint16_t port;
  std::latch ready;
  std::latch go{1};
  uint64_t start_ns = 0;  // load starts (warm-up begins)
  uint64_t m0 = 0;        // measured window [m0, m1)
  uint64_t m1 = 0;
};

QueryRequest ToQuery(const Workload& workload, const Request& request) {
  QueryRequest query;
  query.pattern = workload.patterns[request.pattern];
  query.docs = request.docs;
  query.max_tuples = request.max_tuples;
  return query;
}

/// Records a QUERY answer; false if any document failed.
bool TakeQuery(const QueryResponse& response, const Request& request, bool in_window,
               Tally* t) {
  Observe(response, request.pattern, &t->observations);
  bool ok = true;
  for (const WireDocResult& result : response.results) {
    if (!result.ok) {
      ok = false;
      t->Error("D" + std::to_string(result.doc) + ": " + result.error);
    }
    if (in_window) t->tuples_sent += result.tuples.size();
  }
  if (in_window) t->doc_queries += response.results.size();
  return ok;
}

bool TakeCommit(const CommitResponse& response, const Request& request, Tally* t) {
  if (response.shard_versions.size() != 1) {
    t->Error("edit of D" + std::to_string(request.doc) + " touched " +
             std::to_string(response.shard_versions.size()) + " shards");
    return false;
  }
  t->acks.push_back(EditAck{request.doc, response.shard_versions[0].second, request.cde});
  return true;
}

/// Synchronous execution of one request (closed loop, set-up, passes).
bool Execute(SpannerClient& client, const Workload& workload, const Request& request,
             bool in_window, Tally* t) {
  if (request.kind == Request::Kind::kQuery) {
    Expected<QueryResponse> response = client.Query(ToQuery(workload, request));
    if (!response.ok()) {
      t->Error("query: " + response.error());
      return false;
    }
    return TakeQuery(*response, request, in_window, t);
  }
  WriteBatch batch;
  batch.Edit(request.doc, request.cde);
  Expected<CommitResponse> response = client.Commit(batch);
  if (!response.ok()) {
    t->Error("commit: " + response.error());
    return false;
  }
  return TakeCommit(*response, request, t);
}

// --- closed loop -------------------------------------------------------------

void ClosedLoop(Phase& phase, unsigned c, Tally* t) {
  const Workload& w = phase.workload;
  Expected<SpannerClient> connected = SpannerClient::Connect(kHost, phase.port);
  if (!connected.ok()) {
    t->Error("connect: " + connected.error());
    ++t->failed;
    phase.ready.count_down();
    return;
  }
  SpannerClient client = std::move(*connected);
  RequestStream stream(w, c, phase.options.seed);

  // Isolation audit: pin a snapshot, answer one query there, and demand the
  // identical answer every kAuditEvery requests while commits land.
  QueryRequest audit;
  audit.pattern = w.patterns[0];
  audit.docs = {static_cast<ClusterDocId>(c % w.corpus.size()) + 1};
  audit.max_tuples = w.max_tuples;
  Expected<SnapshotResponse> pinned = client.Snapshot();
  Expected<QueryResponse> baseline = Status::Error("no snapshot");
  if (pinned.ok()) {
    audit.snapshot_versions = pinned->versions;
    baseline = client.Query(audit);
  }
  if (!baseline.ok()) {
    t->Error("audit baseline: " + baseline.error());
    ++t->failed;
  }
  phase.ready.count_down();
  phase.go.wait();

  uint64_t retries_at_m0 = 0;
  bool window_started = false;
  unsigned consecutive_failures = 0;
  for (uint64_t i = 0; baseline.ok(); ++i) {
    if (NowNanos() >= phase.m1) break;
    if (consecutive_failures >= 64) {
      t->Error("64 consecutive failures; giving up");
      break;
    }
    if (i % kAuditEvery == kAuditEvery - 1) {
      Expected<QueryResponse> again = client.Query(audit);
      if (!again.ok() || again->results.size() != 1 || !again->results[0].ok ||
          again->results[0].num_tuples != baseline->results[0].num_tuples ||
          TuplesHash(again->results[0].tuples) != TuplesHash(baseline->results[0].tuples)) {
        ++t->audit_violations;
        t->Error("pinned-snapshot audit changed its answer");
      }
      continue;
    }
    if (phase.options.trace && i % kPingEvery == kPingEvery / 2) {
      const uint64_t start = NowNanos();
      if (client.Ping("p").ok() && start >= phase.m0) {
        t->ping_us.push_back((NowNanos() - start) / 1e3);
      }
      continue;
    }
    const Request request = stream.Next();
    const uint64_t start = NowNanos();
    const bool in_window = start >= phase.m0;
    if (in_window && !window_started) {
      window_started = true;
      retries_at_m0 = client.retries();
    }
    const bool ok = Execute(client, w, request, in_window, t);
    const double us = (NowNanos() - start) / 1e3;
    consecutive_failures = ok ? 0 : consecutive_failures + 1;
    if (!in_window) continue;
    ++t->attempted;
    if (!ok) {
      ++t->failed;
    } else {
      (request.kind == Request::Kind::kQuery ? t->query_us : t->commit_us).push_back(us);
    }
  }
  if (window_started) t->retries = client.retries() - retries_at_m0;
}

// --- open loop ---------------------------------------------------------------

/// One pipelined connection: a sender thread issuing requests at their
/// scheduled (Poisson) times, a receiver thread matching answers by id.
/// Latency runs from the scheduled time, so a stalled sender or server
/// charges every request it delays.
class OpenConnection {
 public:
  OpenConnection(Phase& phase, unsigned c, TcpConnection connection)
      : phase_(phase), c_(c), connection_(std::move(connection)) {}

  void Send(Tally* t);
  void Receive(Tally* t);

  /// True once every scheduled request was sent and answered.
  bool Drained() {
    std::lock_guard<std::mutex> lock(mutex_);
    return done_sending_ && pending_.empty();
  }
  void Shutdown() { connection_.Shutdown(); }

  /// Requests still unanswered, counted as failures when in the window.
  void CountUnanswered(Tally* t) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, p] : pending_) {
      if (p.in_window) {
        ++t->failed;
        ++t->attempted;
      }
    }
  }

 private:
  struct Pending {
    uint64_t due_ns = 0;
    bool in_window = false;
    bool ping = false;
    Request request;
    MessageType type = MessageType::kQuery;
    std::string payload;
    unsigned retries = 0;
  };

  Phase& phase_;
  unsigned c_;
  TcpConnection connection_;
  std::mutex write_mutex_;  ///< one frame on the socket at a time
  std::mutex mutex_;        ///< guards pending_, done_sending_
  std::map<uint64_t, Pending> pending_;
  bool done_sending_ = false;
};

void OpenConnection::Send(Tally* t) {
  const Workload& w = phase_.workload;
  RequestStream stream(w, c_, phase_.options.seed);
  Rng arrivals(phase_.options.seed * 7919ull + c_);
  const double mean_gap_ns = 1e9 * w.connections / w.rate_per_s;
  double due = static_cast<double>(phase_.start_ns);
  for (uint64_t id = 1;; ++id) {
    due += -std::log(1.0 - arrivals.NextDouble()) * mean_gap_ns;
    if (due >= static_cast<double>(phase_.m1)) break;
    Pending p;
    p.due_ns = static_cast<uint64_t>(due);
    p.in_window = p.due_ns >= phase_.m0;
    if (phase_.options.trace && id % kPingEvery == kPingEvery / 2) {
      p.ping = true;
      p.type = MessageType::kPing;
      p.payload = "p";
    } else {
      p.request = stream.Next();
      if (p.request.kind == Request::Kind::kQuery) {
        p.payload = EncodeQueryRequest(ToQuery(w, p.request));
      } else {
        CommitRequest commit;
        commit.batch.Edit(p.request.doc, p.request.cde);
        p.type = MessageType::kCommit;
        p.payload = EncodeCommitRequest(commit);
      }
    }
    SleepUntilNs(p.due_ns);
    const uint64_t sent = NowNanos();
    if (p.in_window) t->gen_lag_us.push_back((sent - p.due_ns) / 1e3);
    const MessageType type = p.type;
    const std::string payload = p.payload;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      pending_.emplace(id, std::move(p));
    }
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (Status s = connection_.SendFrame(type, StatusCode::kOk, id, payload); !s.ok()) {
      t->Error("send: " + s.message());
      break;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  done_sending_ = true;
}

void OpenConnection::Receive(Tally* t) {
  FrameReader reader;
  while (true) {
    Expected<FrameReader::Frame> frame = connection_.ReceiveFrame(&reader);
    if (!frame.ok()) return;  // shut down after the grace period, or server gone
    const uint64_t end = NowNanos();
    Pending p;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = pending_.find(frame->header.request_id);
      if (it == pending_.end()) {
        t->Error("answer to an unknown request id");
        continue;
      }
      if (frame->header.status == StatusCode::kRetry && it->second.retries < kMaxRetries) {
        ++it->second.retries;
        if (it->second.in_window) ++t->retries;
        const std::string payload = it->second.payload;
        const MessageType type = it->second.type;
        std::lock_guard<std::mutex> write_lock(write_mutex_);
        (void)connection_.SendFrame(type, StatusCode::kOk, it->first, payload);
        continue;
      }
      p = std::move(it->second);
      pending_.erase(it);
    }
    bool ok = frame->header.status == StatusCode::kOk && frame->header.type == p.type;
    if (!ok) t->Error("status " + std::to_string(static_cast<int>(frame->header.status)) +
                      ": " + frame->payload);
    if (ok && p.ping) {
      if (p.in_window) t->ping_us.push_back((end - p.due_ns) / 1e3);
      continue;
    }
    if (ok && p.type == MessageType::kQuery) {
      Expected<QueryResponse> response = DecodeQueryResponse(frame->payload);
      ok = response.ok() && TakeQuery(*response, p.request, p.in_window, t);
    } else if (ok) {
      Expected<CommitResponse> response = DecodeCommitResponse(frame->payload);
      ok = response.ok() && TakeCommit(*response, p.request, t);
    }
    if (!p.in_window) continue;
    ++t->attempted;
    const double us = (end - p.due_ns) / 1e3;
    if (!ok) {
      ++t->failed;
    } else {
      (p.type == MessageType::kQuery ? t->query_us : t->commit_us).push_back(us);
    }
  }
}

// --- phases ------------------------------------------------------------------

/// The fixed server flags of every run (replay.cpp builds its in-process
/// cluster with the matching options). Every run is durable.
std::vector<std::string> ServerArgs(const std::string& dir) {
  return {"--shards=2", "--workers=2",   "--queue-capacity=128", "--window=16",
          "--seed-docs=0", "--port=0", "--snapshot-dir=" + dir};
}

/// Spawns a server on a fresh \p dir, ingests the corpus and, with
/// \p warm, runs the warm pass. \p setup_s, when given, receives the time
/// from spawn to ready.
Expected<std::unique_ptr<ServerProcess>> StartReady(const Options& o, const Workload& w,
                                                    const std::string& dir,
                                                    const std::string& trace_level,
                                                    bool warm, double* setup_s = nullptr) {
  std::filesystem::remove_all(dir);
  const uint64_t start = NowNanos();
  Expected<std::unique_ptr<ServerProcess>> server =
      ServerProcess::Start(o.server, ServerArgs(dir), trace_level, 60);
  if (!server.ok()) return server.status();
  Expected<SpannerClient> client = SpannerClient::Connect(kHost, (*server)->port());
  if (!client.ok()) return client.status();
  ClusterDocId next_id = 1;
  for (const WriteBatch& batch : IngestBatches(w)) {
    Expected<CommitResponse> receipt = client->Commit(batch);
    if (!receipt.ok()) return Status::Error("ingest: " + receipt.error());
    for (ClusterDocId id : receipt->created) {
      if (id != next_id++) return Status::Error("ingest: unexpected document ids");
    }
  }
  Tally scratch;
  for (const Request& request : warm ? WarmRequests(w) : std::vector<Request>{}) {
    if (!Execute(*client, w, request, false, &scratch)) {
      return Status::Error("warm pass: " + (scratch.errors.empty() ? "" : scratch.errors[0]));
    }
  }
  if (setup_s != nullptr) *setup_s = (NowNanos() - start) / 1e9;
  return server;
}

/// The final-state read the oracle and the recovery comparison share:
/// pattern 0 over the first kFinalDocs documents, at a fresh snapshot.
Expected<QueryResponse> FinalState(SpannerClient& client, const Workload& w) {
  QueryRequest query;
  query.pattern = w.patterns[0];
  query.max_tuples = w.max_tuples;
  for (ClusterDocId doc = 1; doc <= std::min<std::size_t>(kFinalDocs, w.corpus.size()); ++doc) {
    query.docs.push_back(doc);
  }
  return client.Query(query);
}

bool SameAnswers(const QueryResponse& a, const QueryResponse& b) {
  if (a.snapshot_versions != b.snapshot_versions || a.results.size() != b.results.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const WireDocResult& x = a.results[i];
    const WireDocResult& y = b.results[i];
    if (x.doc != y.doc || x.ok != y.ok || x.num_tuples != y.num_tuples ||
        TuplesHash(x.tuples) != TuplesHash(y.tuples)) {
      return false;
    }
  }
  return true;
}

/// The 1-connection wire pass: a fresh server, then \p requests one at a
/// time until they run out or \p cap_s passes. Returns each QUERY's
/// latency; \p sent is how many requests went out.
Expected<std::vector<double>> WirePass(const Options& o, const Workload& w,
                                       const std::vector<Request>& requests,
                                       const std::string& trace_level, double cap_s,
                                       std::size_t* sent) {
  const std::string dir = o.work_dir + "/store-pass";
  Expected<std::unique_ptr<ServerProcess>> server = StartReady(o, w, dir, trace_level, true);
  if (!server.ok()) return server.status();
  Expected<SpannerClient> client = SpannerClient::Connect(kHost, (*server)->port());
  if (!client.ok()) return client.status();
  Tally pass;
  const double end = NowNanos() + cap_s * 1e9;
  std::size_t i = 0;
  for (; i < requests.size() && NowNanos() < end; ++i) {
    const uint64_t start = NowNanos();
    if (!Execute(*client, w, requests[i], true, &pass)) {
      return Status::Error(pass.errors.empty() ? "request failed" : pass.errors[0]);
    }
    if (requests[i].kind == Request::Kind::kQuery) {
      pass.query_us.push_back((NowNanos() - start) / 1e3);
    }
  }
  *sent = i;
  server->reset();
  std::filesystem::remove_all(dir);
  return pass.query_us;
}

struct Recovery {
  std::vector<double> seconds;  ///< spawn -> first answered QUERY, per restart
  bool equal = false;           ///< the first restart serves the acknowledged state
};

/// Crash recovery from a fixed amount of durable state: the WAL holds the
/// corpus ingest and the first kRecoveryEdits edits of the merged stream,
/// too few for a GC compaction to roll the log into a snapshot. The state
/// is checked against the oracle, then the server is SIGKILLed and
/// restarted --recover-reps times on the same directory. (Timing the
/// measured phase's own crash made recover_s depend on where GC last
/// rolled the log.)
Expected<Recovery> MeasureRecovery(const Options& o, const Workload& w,
                                   const std::string& trace_level, VerifyReport* report) {
  const std::string dir = o.work_dir + "/store-recovery";
  Expected<std::unique_ptr<ServerProcess>> started = StartReady(o, w, dir, trace_level, false);
  if (!started.ok()) return started.status();
  std::unique_ptr<ServerProcess> server = std::move(*started);
  Expected<QueryResponse> acknowledged = Status::Error("not read");
  {
    Expected<SpannerClient> client = SpannerClient::Connect(kHost, server->port());
    if (!client.ok()) return client.status();
    Tally edits;
    for (const Request& edit : RecoveryEdits(w, o.seed, kRecoveryEdits)) {
      if (!Execute(*client, w, edit, false, &edits)) {
        return Status::Error("edit: " + (edits.errors.empty() ? "" : edits.errors[0]));
      }
    }
    acknowledged = FinalState(*client, w);
    if (!acknowledged.ok()) return acknowledged.status();
    std::vector<DocObservation> state;
    Observe(*acknowledged, 0, &state);
    report->Add(Verify(w, {}, state, edits.acks, 0, o.seed));
  }
  Recovery out;
  for (unsigned r = 0; r < o.recover_reps; ++r) {
    server.reset();  // SIGKILL: the WAL tail replays on restart
    const uint64_t start = NowNanos();
    Expected<std::unique_ptr<ServerProcess>> restarted =
        ServerProcess::Start(o.server, ServerArgs(dir), trace_level, 120);
    if (!restarted.ok()) return restarted.status();
    server = std::move(*restarted);
    Expected<SpannerClient> client = SpannerClient::Connect(kHost, server->port());
    if (!client.ok()) return client.status();
    QueryRequest first;
    first.pattern = w.patterns[0];
    first.docs = {1};
    if (Expected<QueryResponse> answered = client->Query(first); !answered.ok()) {
      return Status::Error("first query after restart: " + answered.error());
    }
    out.seconds.push_back((NowNanos() - start) / 1e9);
    if (r == 0) {
      Expected<QueryResponse> recovered = FinalState(*client, w);
      out.equal = recovered.ok() && SameAnswers(*recovered, *acknowledged);
      if (!out.equal) ++report->mismatches;
    }
  }
  server.reset();
  std::filesystem::remove_all(dir);
  return out;
}

// --- JSON output ---------------------------------------------------------------

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string Arr(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) out += (i ? "," : "") + Num(values[i]);
  return out + "]";
}

std::string StrArr(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) out += (i ? "," : "") + Str(values[i]);
  return out + "]";
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  out << contents;
  return static_cast<bool>(out);
}

int Fail(const std::string& message) {
  std::cerr << "serve_load: " << message << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Die with serve_bench.py, and the servers die with us
  // (ServerProcess sets the same on them).
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  Options o;
  FlagParser parser;
  parser.AddString("workload", &o.workload, "workload name");
  parser.AddUnsigned("seed", &o.seed, "input seed");
  parser.AddDouble("seconds", &o.seconds, "measured window length");
  parser.AddDouble("warmup", &o.warmup_s, "unmeasured load before the window");
  parser.AddString("server", &o.server, "path of example_spanner_server");
  parser.AddString("work-dir", &o.work_dir, "scratch directory (store dirs, dumps)");
  parser.AddString("json-out", &o.json_out, "result file");
  parser.AddBool("trace", &o.trace, "traced run (counters, scrapes, passes)");
  parser.AddUnsigned("setup-reps", &o.setup_reps, "set-ups per run");
  parser.AddUnsigned("recover-reps", &o.recover_reps, "crash recoveries per run");
  parser.AddDouble("pass-seconds", &o.pass_seconds, "traced wire pass: time cap");
  std::vector<char*> positional;
  if (const std::string error = parser.Parse(argc, argv, &positional); !error.empty()) {
    return Fail(error + "\n" + parser.HelpText());
  }
  std::unique_ptr<Workload> workload = MakeWorkload(o.workload, o.seed);
  if (!workload || o.server.empty() || o.work_dir.empty() || o.json_out.empty() ||
      o.seconds <= 0 || o.setup_reps == 0 || o.recover_reps == 0) {
    return Fail("need a known --workload, --server, --work-dir, --json-out, "
                "--seconds > 0 and at least one set-up and recovery");
  }
  Workload& w = *workload;
  // Load from one process with at most nproc threads: a closed-loop
  // connection is one thread, an open-loop one two.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  w.connections = std::max(1u, std::min(w.connections, w.loop == LoopKind::kOpen
                                                            ? nproc / 2
                                                            : nproc));
  const std::string trace_level = o.trace ? "counters" : "off";
  SetTraceLevel(o.trace ? TraceLevel::kCounters : TraceLevel::kOff);
  std::filesystem::create_directories(o.work_dir);
  if (!WriteFile(o.work_dir + "/inputs.bin", InputsDump(w, o.seed, 1000))) {
    return Fail("cannot write " + o.work_dir);
  }

  // Set-up, repeated on fresh directories; the last one serves the run.
  const uint64_t begin_ns = NowNanos();
  const std::string dir = o.work_dir + "/store";
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  for (unsigned r = 0; r < o.setup_reps; ++r) {
    double seconds = 0;
    Expected<std::unique_ptr<ServerProcess>> started =
        StartReady(o, w, dir, trace_level, true, &seconds);
    if (!started.ok()) return Fail("set-up: " + started.error());
    setup_s.push_back(seconds);
    server = std::move(*started);
    if (r + 1 < o.setup_reps) server.reset();
  }
  Expected<SpannerClient> control = SpannerClient::Connect(kHost, server->port());
  if (!control.ok()) return Fail("control connection: " + control.error());

  // The measured phase.
  const unsigned conns = w.connections;
  Phase phase{w, o, server->port(), std::latch(conns)};
  std::vector<Tally> tallies(2 * conns);
  std::vector<std::unique_ptr<OpenConnection>> open;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < conns && w.loop == LoopKind::kOpen; ++c) {
    Expected<TcpConnection> connection = TcpConnection::Connect(kHost, phase.port);
    if (!connection.ok()) return Fail("connect: " + connection.error());
    open.push_back(std::make_unique<OpenConnection>(phase, c, std::move(*connection)));
  }
  for (unsigned c = 0; c < conns; ++c) {
    if (w.loop == LoopKind::kClosed) {
      threads.emplace_back(ClosedLoop, std::ref(phase), c, &tallies[c]);
      continue;
    }
    OpenConnection* oc = open[c].get();
    threads.emplace_back([&phase, oc, t = &tallies[c]] {
      phase.ready.count_down();
      phase.go.wait();
      oc->Send(t);
    });
    threads.emplace_back([&phase, oc, t = &tallies[conns + c]] {
      phase.go.wait();
      oc->Receive(t);
    });
  }
  // The clock starts once every connection is connected and pinned.
  phase.ready.wait();
  phase.start_ns = NowNanos();
  phase.m0 = phase.start_ns + static_cast<uint64_t>(o.warmup_s * 1e9);
  phase.m1 = phase.m0 + static_cast<uint64_t>(o.seconds * 1e9);
  phase.go.count_down();
  std::string metrics_before, metrics_after, scrape_error;
  auto scrape = [&](std::string* out) {
    Expected<std::string> text = control->Metrics();
    if (text.ok()) {
      *out = std::move(*text);
    } else {
      scrape_error = "METRICS: " + text.error();
    }
  };
  if (o.trace) {
    SleepUntilNs(phase.m0);
    scrape(&metrics_before);
  }
  SleepUntilNs(phase.m1);
  if (o.trace) scrape(&metrics_after);
  const double rss_mb = server->PeakRssMiB();
  const uint64_t grace_end = phase.m1 + static_cast<uint64_t>(kGraceS * 1e9);
  for (const auto& oc : open) {
    while (!oc->Drained() && NowNanos() < grace_end) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    oc->Shutdown();
  }
  for (std::thread& thread : threads) thread.join();
  const uint64_t loaded_ns = NowNanos();
  Tally total;
  for (const auto& oc : open) oc->CountUnanswered(&total);
  for (Tally& t : tallies) total.Merge(std::move(t));
  if (!scrape_error.empty()) return Fail(scrape_error);

  // Verification: every answer, and the final state against the oracle.
  Expected<QueryResponse> final_state = FinalState(*control, w);
  if (!final_state.ok()) return Fail("final state: " + final_state.error());
  std::vector<DocObservation> final_obs;
  Observe(*final_state, 0, &final_obs);
  VerifyReport report =
      Verify(w, total.observations, final_obs, total.acks, kOracleKeys, o.seed);
  control = Status::Error("closed");
  server.reset();
  std::filesystem::remove_all(dir);
  const uint64_t verified_ns = NowNanos();

  Expected<Recovery> recovery = MeasureRecovery(o, w, trace_level, &report);
  if (!recovery.ok()) return Fail("recovery: " + recovery.error());
  const uint64_t recovered_ns = NowNanos();

  // Traced passes over the first requests of the merged stream.
  std::string pass_json = "null", replay_json = "null";
  if (o.trace) {
    std::vector<Request> requests = MergedRequests(w, o.seed, kPassRequests);
    // One connection over the wire, with tracing off and then on: the same
    // requests on two fresh servers price the tracing itself.
    std::size_t replayed = 0, traced_sent = 0;
    Expected<std::vector<double>> untraced =
        WirePass(o, w, requests, "off", o.pass_seconds, &replayed);
    if (!untraced.ok()) return Fail("pass: " + untraced.error());
    requests.resize(replayed);
    Expected<std::vector<double>> traced =
        WirePass(o, w, requests, "counters", 1e9, &traced_sent);
    if (!traced.ok()) return Fail("pass: " + traced.error());
    pass_json = "{\"requests\":" + std::to_string(replayed) +
                ",\"query_us\":" + Arr(*traced) +
                ",\"query_us_untraced\":" + Arr(*untraced) + "}";

    Expected<ReplayReport> replay = RunReplay(w, requests, o.work_dir + "/store-replay",
                                              o.work_dir + "/replay_trace.json");
    if (!replay.ok()) return Fail("replay: " + replay.error());
    std::string stages = "{";
    for (const auto& [name, stage] : replay->stages) {
      stages += (stages.size() > 1 ? "," : "") + Str(name) + ":{\"call_us\":" +
                Arr(stage.call_us) + ",\"self_us_total\":" + Num(stage.self_us_total) + "}";
    }
    replay_json = "{\"stages\":" + stages + "},\"query_stage_sum_us\":" +
                  Arr(replay->query_stage_sum_us) +
                  ",\"response_bytes\":" + Arr(replay->response_bytes) +
                  ",\"first_compile_us\":" + Arr(replay->first_compile_us) + "}";
    std::filesystem::remove_all(o.work_dir + "/store-replay");
    if (!WriteFile(o.work_dir + "/metrics_before.txt", metrics_before) ||
        !WriteFile(o.work_dir + "/metrics_after.txt", metrics_after)) {
      return Fail("cannot write metrics scrapes");
    }
  }
  const uint64_t end_ns = NowNanos();

  const std::string json =
      "{\"workload\":" + Str(w.name) + ",\"seed\":" + std::to_string(o.seed) +
      ",\"nproc\":" + std::to_string(nproc) + ",\"connections\":" + std::to_string(conns) +
      ",\"loop\":" + Str(w.loop == LoopKind::kOpen ? "open" : "closed") +
      ",\"rate_per_s\":" + Num(w.rate_per_s) +
      ",\"warmup_s\":" + Num(o.warmup_s) + ",\"window_s\":" + Num(o.seconds) + ",\"setup_s\":" + Arr(setup_s) +
      ",\"recover_s\":" + Arr(recovery->seconds) + ",\"query_us\":" + Arr(total.query_us) +
      ",\"commit_us\":" + Arr(total.commit_us) + ",\"gen_lag_us\":" + Arr(total.gen_lag_us) +
      ",\"ping_us\":" + Arr(total.ping_us) +
      ",\"attempted\":" + std::to_string(total.attempted) +
      ",\"failed\":" + std::to_string(total.failed) +
      ",\"doc_queries\":" + std::to_string(total.doc_queries) +
      ",\"tuples_sent\":" + std::to_string(total.tuples_sent) +
      ",\"client_retries\":" + std::to_string(total.retries) +
      ",\"audit_violations\":" + std::to_string(total.audit_violations) +
      ",\"server_rss_mb\":" + Num(rss_mb) + ",\"errors\":" + StrArr(total.errors) +
      ",\"verify\":{\"observations\":" + std::to_string(report.observations) +
      ",\"distinct_keys\":" + std::to_string(report.distinct_keys) +
      ",\"oracle_checks\":" + std::to_string(report.oracle_checks) +
      ",\"acks\":" + std::to_string(total.acks.size()) +
      ",\"mismatches\":" + std::to_string(report.mismatches) +
      ",\"recovered_equal\":" + (recovery->equal ? "true" : "false") +
      ",\"messages\":" + StrArr(report.messages) + "}" + ",\"pass\":" + pass_json +
      ",\"replay\":" + replay_json + ",\"phase_s\":{\"setup\":" +
      Num((phase.start_ns - begin_ns) / 1e9) + ",\"load\":" +
      Num((loaded_ns - phase.start_ns) / 1e9) + ",\"verify\":" +
      Num((verified_ns - loaded_ns) / 1e9) + ",\"recovery\":" +
      Num((recovered_ns - verified_ns) / 1e9) + ",\"passes\":" +
      Num((end_ns - recovered_ns) / 1e9) + "}}\n";
  if (!WriteFile(o.json_out, json)) return Fail("cannot write " + o.json_out);
  return 0;
}
