// server_mix generator: drives one flowsynthd open-loop on a seeded arrival
// schedule and checks what it served against in-process runs.
//
// Job mix, per 20 arrivals: 7 repeats of an 8-spec hot set that fits in the
// result cache, 8 fresh synthesis specs with unique seeds, 4 reliability
// jobs with one injected fault (forcing a degraded re-synthesis) and 1
// small fleet job.  With hot repeats at 35% rather than half, the median
// job is a computed one, well clear of the steep step between cache hits
// and computations, where it swung by a fifth between identical runs.
// Fixed counts drawn in seeded order, not per-job coin flips, keep each
// share identical on every seed, so fresh work does not swing with how many
// slow variants (mixing_tree, invitro at policy 1) one seed draws.
//
// Connections: `--conns` (run.py passes nproc) persistent connections, one
// per thread: conns-1 submitters take the next due job, sleep until it is
// due and POST it; one poller cycles GET /v1/jobs/{id}/result over the
// accepted jobs.  A job is timed from its due time, so a submitter that
// could not send on time charges the delay to the job and reports it as
// generator lag.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <iostream>
#include <mutex>
#include <thread>

#include "http_client.hpp"
#include "net/wire.hpp"
#include "perfbench.hpp"
#include "rel/engine.hpp"
#include "report/result_io.hpp"
#include "sched/list_scheduler.hpp"
#include "synth/synthesis.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace perfbench {
namespace {

using namespace fsyn;

enum class JobClass { kHot, kFresh, kReliability, kFleet };

const char* class_name(JobClass cls) {
  switch (cls) {
    case JobClass::kHot: return "synth_hot";
    case JobClass::kFresh: return "synth_fresh";
    case JobClass::kReliability: return "reliability";
    case JobClass::kFleet: return "fleet";
  }
  return "?";
}

constexpr int kHotSetSize = 8;
const char* const kFastAssays[] = {"pcr", "mixing_tree", "protein", "invitro"};

/// Heuristic seeds stay below 2^31 so every JSON reader keeps them exact.
std::int64_t small_seed(std::uint64_t value) {
  return static_cast<std::int64_t>(value % 2147483647ULL);
}

/// One spec of the hot set.  The name is only a label (it is not part of
/// the result-cache key), so every job can carry its own.
std::string hot_spec(std::uint64_t seed, int index, const std::string& name) {
  JsonWriter w;
  w.begin_object();
  w.key("assay").value(kFastAssays[index % 4]);
  w.key("policy").value(index / 4);
  w.key("seed").value(small_seed(derive_seed(seed, 100 + static_cast<std::uint64_t>(index))));
  w.key("name").value(name);
  w.end_object();
  return w.take();
}

struct Job {
  JobClass cls = JobClass::kHot;
  int hot_index = -1;
  std::string body;
  double due = 0.0;  ///< seconds after the phase start
  // Outcome, times relative to the phase start.
  double sent = -1.0;
  double submit_ms = 0.0;
  std::uint64_t id = 0;
  double done = -1.0;
  std::string state = "unsent";  ///< done | failed | refused | unfinished | error
  std::string doc;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return derive_seed(state_++, 0); }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Draws from a fixed multiset in seeded order, reshuffling once it is used
/// up, so every class and spec variant keeps its share on every seed.
template <typename T>
class Deck {
 public:
  Deck(std::vector<T> cards, Rng& rng) : cards_(std::move(cards)), rng_(rng) {}
  T draw() {
    if (next_ == 0) {
      for (std::size_t i = cards_.size() - 1; i > 0; --i) {
        std::swap(cards_[i], cards_[rng_.next() % (i + 1)]);
      }
    }
    const T card = cards_[next_];
    next_ = (next_ + 1) % cards_.size();
    return card;
  }

 private:
  std::vector<T> cards_;
  Rng& rng_;
  std::size_t next_ = 0;
};

/// The phase's arrivals: round(rate * seconds) jobs, the k-th due at a
/// seeded uniform point of the k-th 1/rate slot (bounded bursts, so the
/// tail is set by service times rather than by how clumped one seed's
/// arrivals happen to be), every input derived from (seed, phase).
std::vector<Job> make_schedule(std::uint64_t seed, int phase, double rate, double seconds) {
  Rng rng(derive_seed(seed, 1000 + static_cast<std::uint64_t>(phase)));
  std::vector<JobClass> block(7, JobClass::kHot);
  block.insert(block.end(), 8, JobClass::kFresh);
  block.insert(block.end(), 4, JobClass::kReliability);
  block.push_back(JobClass::kFleet);
  Deck<JobClass> classes(block, rng);
  Deck<int> hot({0, 1, 2, 3, 4, 5, 6, 7}, rng);
  Deck<int> fresh({0, 1, 2, 3, 4, 5, 6, 7}, rng);  // assay x policy
  Deck<int> reliability({0, 1}, rng);
  const std::int64_t first_unique = small_seed(rng.next());
  const int count = static_cast<int>(std::lround(rate * seconds));
  std::vector<Job> jobs;
  for (int k = 0; k < count; ++k) {
    Job job;
    job.cls = classes.draw();
    job.due = (k + rng.uniform()) / rate;
    const std::string name = std::string(class_name(job.cls)) + "-" +
                             std::to_string(phase) + "-" + std::to_string(k);
    const std::int64_t unique = (first_unique + k) % 2147483647LL;
    JsonWriter w;
    switch (job.cls) {
      case JobClass::kHot:
        job.hot_index = hot.draw();
        job.body = hot_spec(seed, job.hot_index, name);
        break;
      case JobClass::kFresh: {
        const int variant = fresh.draw();
        w.begin_object();
        w.key("assay").value(kFastAssays[variant % 4]);
        w.key("policy").value(variant / 4);
        w.key("seed").value(unique);
        w.key("name").value(name);
        w.end_object();
        job.body = w.take();
        break;
      }
      case JobClass::kReliability:
        w.begin_object();
        w.key("kind").value("reliability");
        w.key("assay").value(reliability.draw() == 0 ? "pcr" : "invitro");
        w.key("seed").value(unique);
        w.key("name").value(name);
        w.key("reliability").begin_object();
        w.key("trials").value(200);
        w.key("seed").value(small_seed(rng.next()));
        w.key("inject_top").value(1);
        w.end_object();
        w.end_object();
        job.body = w.take();
        break;
      case JobClass::kFleet:
        w.begin_object();
        w.key("kind").value("fleet");
        w.key("assay").value("pcr");
        w.key("seed").value(unique);
        w.key("name").value(name);
        w.key("fleet").begin_object();
        w.key("chips").value(8);
        w.key("cadence").value(10);
        w.key("horizon").value(40);
        // Repairs on the job's own worker: no threads beyond the server's
        // two compete for the host's cores.
        w.key("repair_workers").value(1);
        w.end_object();
        w.end_object();
        job.body = w.take();
        break;
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Runs `jobs` open-loop against the server on `port`, then waits up to
/// `drain` seconds for stragglers and cancels whatever is still running.
void drive(int port, int conns, double drain, std::vector<Job>& jobs) {
  const int submitters = std::max(1, conns - 1);
  const auto start = std::chrono::steady_clock::now();
  const auto since_start = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  std::atomic<std::size_t> next{0};
  std::atomic<int> submitters_left{submitters};
  std::mutex accepted_mutex;
  std::deque<std::size_t> accepted;  // guarded by accepted_mutex

  std::vector<std::thread> threads;
  for (int s = 0; s < submitters; ++s) {
    threads.emplace_back([&] {
      HttpConnection conn(port);
      for (std::size_t i = next++; i < jobs.size(); i = next++) {
        Job& job = jobs[i];
        std::this_thread::sleep_until(start + std::chrono::duration_cast<
                                                  std::chrono::steady_clock::duration>(
                                                  std::chrono::duration<double>(job.due)));
        job.sent = since_start();
        try {
          const Reply reply = conn.request(
              "POST", job.cls == JobClass::kFleet ? "/v1/fleet" : "/v1/jobs", job.body);
          job.submit_ms = (since_start() - job.sent) * 1e3;
          if (reply.status == 202) {
            job.id = static_cast<std::uint64_t>(JsonValue::parse(reply.body).at("id").as_int());
            std::lock_guard<std::mutex> lock(accepted_mutex);
            accepted.push_back(i);
          } else {
            job.state = reply.status == 429 || reply.status == 503 ? "refused" : "error";
          }
        } catch (const std::exception&) {
          job.state = "error";
        }
      }
      --submitters_left;
    });
  }

  threads.emplace_back([&] {
    HttpConnection conn(port);
    std::vector<std::size_t> pending;
    double drain_deadline = -1.0;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(accepted_mutex);
        pending.insert(pending.end(), accepted.begin(), accepted.end());
        accepted.clear();
      }
      const bool submitting = submitters_left.load() > 0;
      if (!submitting && pending.empty()) break;
      if (!submitting && drain_deadline < 0) drain_deadline = since_start() + drain;
      if (drain_deadline >= 0 && since_start() > drain_deadline) {
        for (std::size_t i : pending) {
          jobs[i].state = "unfinished";
          try {
            conn.request("DELETE", "/v1/jobs/" + std::to_string(jobs[i].id));
          } catch (const std::exception&) {
            // The server is gone; the job stays counted as unfinished.
          }
        }
        break;
      }
      for (auto it = pending.begin(); it != pending.end();) {
        Job& job = jobs[*it];
        Reply reply;
        try {
          reply = conn.request("GET", "/v1/jobs/" + std::to_string(job.id) + "/result");
        } catch (const std::exception&) {
          reply.status = 0;  // unreachable: keep polling until the drain deadline
        }
        if (reply.status == 409 || reply.status == 0) {
          ++it;
          continue;
        }
        job.done = since_start();
        job.state = reply.status == 200 ? "done" : "failed";
        job.doc = std::move(reply.body);
        it = pending.erase(it);
      }
      // One round per 2 ms: fine enough for latencies of tens of
      // milliseconds, light enough to leave the cores to the server.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (std::thread& t : threads) t.join();
}

sched::Schedule schedule_for(const net::WireSpec& ws) {
  return ws.asap ? sched::schedule_asap(ws.spec.graph)
                 : sched::schedule_with_policy(
                       ws.spec.graph, sched::make_policy(ws.spec.graph, ws.policy_increments));
}

/// Synthesis results must match an in-process synthesize() of the same
/// spec on chip size and the Table-1 columns.
std::string check_synthesis(const Job& job) {
  const net::WireSpec ws = net::parse_wire_spec(job.body);
  const synth::SynthesisResult local =
      synth::synthesize(ws.spec.graph, schedule_for(ws), ws.spec.options);
  const synth::SynthesisResult served = report::stored_result_from_json(job.doc).result;
  if (served.chip_width != local.chip_width || served.vs1_max != local.vs1_max ||
      served.vs2_max != local.vs2_max || served.valve_count != local.valve_count) {
    return "served design differs from in-process synthesize()";
  }
  return {};
}

/// Reliability and fleet documents must equal an in-process run byte for byte.
std::string check_document(const Job& job) {
  net::WireSpec ws = net::parse_wire_spec(job.body);
  std::string local;
  if (job.cls == JobClass::kFleet) {
    svc::MetricsRegistry::FleetStats stats;
    local = ws.spec.fleet_runner(CancelToken(), &stats);
  } else {
    const sched::Schedule schedule = schedule_for(ws);
    const synth::SynthesisResult healthy =
        synth::synthesize(ws.spec.graph, schedule, ws.spec.options);
    rel::ReliabilityOptions options = ws.spec.reliability;
    options.synthesis = ws.spec.options;
    options.policy_increments = ws.policy_increments;
    options.asap = ws.asap;
    local = rel::analyze(ws.spec.graph, schedule, healthy, options).to_json();
  }
  return local == job.doc ? std::string() : "served document differs from an in-process run";
}

/// Every hot spec, a seeded sample of fresh specs, and every reliability
/// and fleet document, checked on `threads` threads.  Returns the failures.
std::vector<std::string> check_jobs(const std::vector<Job>& jobs, std::uint64_t seed,
                                    int threads) {
  constexpr std::size_t kFreshSample = 8;
  std::vector<std::string> errors;
  std::vector<const Job*> first_hot(kHotSetSize, nullptr);
  std::vector<const Job*> fresh;
  std::vector<const Job*> to_check;
  for (const Job& job : jobs) {
    if (job.state != "done") continue;
    if (job.cls == JobClass::kHot) {
      const Job*& first = first_hot[static_cast<std::size_t>(job.hot_index)];
      if (first == nullptr) {
        first = &job;
        to_check.push_back(&job);
      } else if (job.doc != first->doc) {
        errors.push_back(job.body + ": repeated hot spec served a different document");
      }
    } else if (job.cls == JobClass::kFresh) {
      fresh.push_back(&job);
    } else {
      to_check.push_back(&job);
    }
  }
  Rng rng(derive_seed(seed, 77));
  for (std::size_t i = fresh.size(); i > 1; --i) {
    std::swap(fresh[i - 1], fresh[rng.next() % i]);
  }
  fresh.resize(std::min(fresh.size(), kFreshSample));
  to_check.insert(to_check.end(), fresh.begin(), fresh.end());

  std::vector<std::string> outcome(to_check.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < to_check.size(); i = next++) {
        const Job& job = *to_check[i];
        try {
          outcome[i] = job.cls == JobClass::kHot || job.cls == JobClass::kFresh
                           ? check_synthesis(job)
                           : check_document(job);
        } catch (const std::exception& e) {
          outcome[i] = std::string("check threw: ") + e.what();
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (std::size_t i = 0; i < to_check.size(); ++i) {
    if (!outcome[i].empty()) errors.push_back(to_check[i]->body + ": " + outcome[i]);
  }
  return errors;
}

/// Set-up: every hot spec computed once (so the timed phase finds them
/// cached), then one job of every other class, so that both workers and
/// every job path have run before timing starts.  Each wave is submitted at
/// once; admission control may shed part of it, and shed jobs are retried
/// once the wave has drained.
void warm(int port, std::uint64_t seed) {
  std::vector<std::string> hot;
  std::vector<std::string> others;
  for (int i = 0; i < kHotSetSize; ++i) {
    hot.push_back(hot_spec(seed, i, "synth_hot-setup-" + std::to_string(i)));
  }
  for (Job& job : make_schedule(seed, -1, 1.0, 20.0)) {
    if (job.cls != JobClass::kHot) others.push_back(std::move(job.body));
  }
  HttpConnection conn(port);
  for (std::vector<std::string> wave : {hot, others}) {
    while (!wave.empty()) {
      std::vector<std::string> shed;
      std::vector<std::string> targets;
      for (const std::string& body : wave) {
        const bool fleet = body.find("\"kind\":\"fleet\"") != std::string::npos;
        const Reply reply = conn.request("POST", fleet ? "/v1/fleet" : "/v1/jobs", body);
        if (reply.status == 429) {
          shed.push_back(body);
          continue;
        }
        check_input(reply.status == 202,
                    "warm-up submit answered " + std::to_string(reply.status));
        targets.push_back("/v1/jobs/" +
                          std::to_string(JsonValue::parse(reply.body).at("id").as_int()) +
                          "/result");
      }
      for (const std::string& target : targets) {
        for (;;) {
          const Reply result = conn.request("GET", target);
          if (result.status == 200) break;
          check_input(result.status == 409, "warm-up job ended without a result");
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      check_input(shed.size() < wave.size(), "warm-up: every job was shed");
      wave = std::move(shed);
    }
  }
}

}  // namespace

int run_load(const Args& args) {
  const int port = static_cast<int>(args.get_int("port", 0));
  const std::uint64_t seed = args.get_seed(2015);
  check_input(port > 0, "--port is required");
  if (args.get_int("warm", 0) != 0) {
    warm(port, seed);
    return 0;
  }
  const int phase = static_cast<int>(args.get_int("phase", 0));
  const double rate = args.get_double("rate", 10.0);
  const double seconds = args.get_double("seconds", 10.0);
  const int conns = static_cast<int>(args.get_int("conns", 2));
  check_input(rate > 0 && seconds > 0 && conns >= 2, "bad --rate/--seconds/--conns");

  std::vector<Job> jobs = make_schedule(seed, phase, rate, seconds);
  drive(port, conns, args.get_double("drain", 30.0), jobs);
  const std::vector<std::string> errors =
      args.get_int("check", 0) != 0 ? check_jobs(jobs, seed, conns) : std::vector<std::string>{};

  JsonWriter w;
  w.begin_object();
  w.key("rate").value(rate);
  w.key("seconds").value(seconds);
  w.key("jobs").begin_array();
  for (const Job& job : jobs) {
    w.begin_object();
    w.key("class").value(class_name(job.cls));
    w.key("due").value(job.due);
    w.key("sent").value(job.sent);
    w.key("submit_ms").value(job.submit_ms);
    w.key("done").value(job.done);
    w.key("state").value(job.state);
    if (job.cls == JobClass::kHot && job.state == "done") {
      // The hot set's Table-1 columns, as served.
      const synth::SynthesisResult r = report::stored_result_from_json(job.doc).result;
      w.key("hot").begin_object();
      w.key("index").value(job.hot_index);
      w.key("side").value(r.chip_width);
      w.key("vs1_max").value(r.vs1_max);
      w.key("vs2_max").value(r.vs2_max);
      w.key("valves").value(r.valve_count);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.key("check_errors").begin_array();
  for (const std::string& e : errors) w.value(e);
  w.end_array();
  w.end_object();
  write_file(args.get("out"), w.take());
  for (const std::string& e : errors) std::cerr << "check failed: " << e << '\n';
  return 0;
}

}  // namespace perfbench
