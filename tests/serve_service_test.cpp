// The socket-free heart of qcongestd: job-spec parsing and validation,
// admission control with structured load shedding, deadline enforcement,
// per-job exception isolation, exactly-once replies, report byte-identity
// across thread budgets, and the deterministic retry backoff.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/obs/run_report.hpp"
#include "src/serve/backoff.hpp"
#include "src/serve/job.hpp"
#include "src/serve/service.hpp"

namespace qcongest::serve {
namespace {

// ---------------------------------------------------------------- job spec

TEST(ServeJob, ParsesAFullSpec) {
  JobSpec spec;
  std::string error;
  ASSERT_TRUE(parse_job_spec("# a comment\n"
                             "id=job-1\n"
                             "app=bfs\n"
                             "graph=grid\n"
                             "nodes=25\n"
                             "seed=7\n"
                             "fault_seed=99\n"
                             "threads=8\n"
                             "deadline_rounds=5000\n"
                             "transport=direct\n"
                             "drop=0.05\n"
                             "corrupt=0.01\n"
                             "duplicate=0.005\n"
                             "crash=3:30:60\n"
                             "crash=3:90:120:amnesia\n"
                             "recover=1\n",
                             &spec, &error))
      << error;
  EXPECT_EQ(spec.id, "job-1");
  EXPECT_EQ(spec.app, "bfs");
  EXPECT_EQ(spec.graph, "grid");
  EXPECT_EQ(spec.nodes, 25u);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_TRUE(spec.fault_seed_set);
  EXPECT_EQ(spec.fault_seed, 99u);
  EXPECT_EQ(spec.threads, 8u);
  EXPECT_EQ(spec.deadline_rounds, 5000u);
  EXPECT_EQ(spec.transport, net::Transport::kDirect);
  EXPECT_DOUBLE_EQ(spec.drop, 0.05);
  ASSERT_EQ(spec.crashes.size(), 2u);
  EXPECT_EQ(spec.crashes[0].node, 3u);
  EXPECT_FALSE(spec.crashes[0].amnesia);
  EXPECT_TRUE(spec.crashes[1].amnesia);
  EXPECT_TRUE(spec.recover);
}

TEST(ServeJob, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                                  // no id/app at all
      "app=bfs\n",                         // missing id
      "id=a\n",                            // missing app
      "id=a\napp=bfs\nnodes=abc\n",        // malformed number
      "id=a\napp=bfs\nnodes=12\nnodes=9\n",  // duplicate key
      "id=a\napp=bfs\nwhat=ever\n",        // unknown key
      "id=a\napp=bfs\ndrop=1e-3\n",        // exponent notation refused
      "id=a\napp=bfs\ndrop=-0.1\n",        // sign refused
      "id=a\napp=bfs\ncrash=1:2\n",        // short crash tuple
      "id=bad id!\napp=bfs\n",             // id charset
      "id=a\napp=bfs\nnodes\n",            // no '='
  };
  for (const char* text : bad) {
    JobSpec spec;
    std::string error;
    EXPECT_FALSE(parse_job_spec(text, &spec, &error)) << "accepted: " << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(ServeJob, ValidateEnforcesLimitsAndExistence) {
  JobLimits limits;
  limits.max_nodes = 32;
  limits.max_threads = 4;
  limits.max_deadline_rounds = 1000;

  auto check = [&](const std::string& text, bool want_ok,
                   const std::string& want_in_error) {
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(parse_job_spec(text, &spec, &error)) << error;
    bool ok = validate_job_spec(spec, limits, &error);
    EXPECT_EQ(ok, want_ok) << text << ": " << error;
    if (!want_ok) {
      EXPECT_NE(error.find(want_in_error), std::string::npos)
          << text << " -> " << error;
    }
  };
  check("id=a\napp=bfs\nnodes=16\n", true, "");
  check("id=a\napp=nope\n", false, "unknown app");
  check("id=a\napp=bfs\ngraph=moebius\n", false, "graph");
  check("id=a\napp=bfs\nnodes=33\n", false, "nodes");
  check("id=a\napp=bfs\nthreads=5\n", false, "threads");
  check("id=a\napp=bfs\ndeadline_rounds=1001\n", false, "deadline");
  // Fault-plan semantics delegate to net::FaultPlan::validate: a crash on a
  // node the topology does not have must be caught at admission.
  check("id=a\napp=bfs\nnodes=8\ncrash=7:10:20\n", true, "");
  check("id=a\napp=bfs\nnodes=8\ncrash=8:10:20\n", false, "out of range");
  check("id=a\napp=bfs\nnodes=8\ncrash=2:10:10\n", false, "crash");
}

// ------------------------------------------------------- report generation

TEST(ServeJob, ReportIsByteIdenticalAcrossThreadBudgets) {
  // The acceptance gate of the whole service: threads is execution advice,
  // never semantics. Also pins that `id` stays out of the document.
  const char* base =
      "app=convergecast\ngraph=tree\nnodes=21\nseed=11\ndrop=0.05\n";
  std::string reports[3];
  const char* variants[3] = {"id=a\nthreads=1\n", "id=b\nthreads=4\n",
                             "id=c\nthreads=8\n"};
  for (int i = 0; i < 3; ++i) {
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(parse_job_spec(std::string(base) + variants[i], &spec, &error))
        << error;
    reports[i] = run_job_report(spec, /*default_deadline_rounds=*/200000);
  }
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], reports[2]);
  std::string error;
  EXPECT_TRUE(obs::json_valid(reports[0], &error)) << error;
}

TEST(ServeJob, DeadlineBecomesAStructuredErrorReport) {
  // A deadline far below what the app needs: the watchdog kills the run and
  // the report carries the diagnosis instead of the worker hanging.
  JobSpec spec;
  std::string error;
  ASSERT_TRUE(parse_job_spec("id=d\napp=diameter\nnodes=24\ndeadline_rounds=3\n",
                             &spec, &error))
      << error;
  std::string report = run_job_report(spec, 200000);
  EXPECT_NE(report.find("error_kind"), std::string::npos) << report;
  EXPECT_NE(report.find("deadline_exceeded"), std::string::npos) << report;
  EXPECT_TRUE(obs::json_valid(report, &error)) << error;
}

TEST(ServeJob, ServerDefaultDeadlineAppliesWhenSpecHasNone) {
  JobSpec spec;
  std::string error;
  ASSERT_TRUE(parse_job_spec("id=d\napp=diameter\nnodes=24\n", &spec, &error));
  // Same starvation deadline, but supplied by the service configuration.
  std::string report = run_job_report(spec, /*default_deadline_rounds=*/3);
  EXPECT_NE(report.find("deadline_exceeded"), std::string::npos) << report;
}

TEST(ServeJob, ReportsNeverThrow) {
  // A spec that passes parsing but describes an unrealizable run must still
  // come back as a structured document (exception isolation).
  JobSpec spec;
  std::string error;
  ASSERT_TRUE(parse_job_spec("id=x\napp=bfs\ngraph=moebius\n", &spec, &error));
  std::string report;
  EXPECT_NO_THROW(report = run_job_report(spec, 1000));
  EXPECT_NE(report.find("error"), std::string::npos) << report;
  EXPECT_TRUE(obs::json_valid(report, &error)) << error;
}

// ------------------------------------------------------------- the service

JobReply wait_submit(Service& service, const std::string& spec) {
  JobReply captured;
  std::atomic<int> replies{0};
  service.submit(spec, [&](const JobReply& reply) {
    captured = reply;
    replies.fetch_add(1);
  });
  while (replies.load() == 0) {
  }
  EXPECT_EQ(replies.load(), 1);  // exactly once
  return captured;
}

TEST(ServeService, RunsAJobEndToEnd) {
  ServiceConfig config;
  config.workers = 2;
  Service service(config);
  JobReply reply =
      wait_submit(service, "id=ok-1\napp=leader\nnodes=9\nseed=3\n");
  EXPECT_EQ(reply.status, JobReply::Status::kOk);
  EXPECT_EQ(reply.id, "ok-1");
  std::string error;
  EXPECT_TRUE(obs::json_valid(reply.body, &error)) << error;
  Service::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.pending, 0u);
}

TEST(ServeService, InvalidSpecsReplySynchronouslyAndNeverRun) {
  Service service(ServiceConfig{});
  bool replied = false;
  service.submit("id=bad\napp=nope\n", [&](const JobReply& reply) {
    replied = true;
    EXPECT_EQ(reply.status, JobReply::Status::kInvalid);
    EXPECT_NE(reply.error.find("unknown app"), std::string::npos)
        << reply.error;
  });
  EXPECT_TRUE(replied);  // synchronous: no worker involved
  service.submit("not a spec at all", [&](const JobReply& reply) {
    EXPECT_EQ(reply.status, JobReply::Status::kInvalid);
  });
  Service::Stats stats = service.stats();
  EXPECT_EQ(stats.invalid_specs, 2u);
  EXPECT_EQ(stats.admitted, 0u);
}

TEST(ServeService, ZeroCapacityShedsEveryJobWithRetryHint) {
  // max_pending = 0 is the degenerate admission bound: every valid job is
  // shed, deterministically — the pure load-shedding path, no timing.
  ServiceConfig config;
  config.max_pending = 0;
  config.retry_after_base_ms = 40;
  Service service(config);
  for (int i = 0; i < 3; ++i) {
    JobReply reply = wait_submit(service, "id=s\napp=bfs\nnodes=8\n");
    EXPECT_EQ(reply.status, JobReply::Status::kRejected);
    EXPECT_EQ(reply.error, "overloaded");
    EXPECT_GE(reply.retry_after_ms, 40u);
  }
  Service::Stats stats = service.stats();
  EXPECT_EQ(stats.rejected_overload, 3u);
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.pending, 0u);
}

TEST(ServeService, OverloadShedsBeyondTheBoundThenRecovers) {
  // One worker, a queue bound of 1, and a burst: the burst must produce at
  // least one structured rejection (the bound is real) and at least one
  // admission (the bound is not a wall), every submit must get exactly one
  // reply, and after the storm the service must accept work again.
  ServiceConfig config;
  config.workers = 1;
  config.max_pending = 1;
  Service service(config);

  constexpr int kBurst = 12;
  std::mutex replies_mutex;
  std::vector<JobReply> replies;
  std::atomic<int> done{0};
  for (int i = 0; i < kBurst; ++i) {
    // A moderately expensive job so the worker cannot outrun the burst.
    service.submit(
        "id=burst-" + std::to_string(i) +
            "\napp=diameter\ngraph=complete\nnodes=24\ndrop=0.1\nseed=" +
            std::to_string(i + 1) + "\n",
        [&](const JobReply& reply) {
          {
            std::lock_guard<std::mutex> lock(replies_mutex);
            replies.push_back(reply);
          }
          done.fetch_add(1);
        });
  }
  while (done.load() < kBurst) {
  }
  ASSERT_EQ(replies.size(), static_cast<std::size_t>(kBurst));
  std::size_t ok = 0, rejected = 0;
  std::set<std::string> seen_ids;
  for (const JobReply& reply : replies) {
    seen_ids.insert(reply.id);
    if (reply.status == JobReply::Status::kOk) ++ok;
    if (reply.status == JobReply::Status::kRejected) {
      ++rejected;
      EXPECT_EQ(reply.error, "overloaded");
      EXPECT_GT(reply.retry_after_ms, 0u);
    }
  }
  EXPECT_EQ(seen_ids.size(), static_cast<std::size_t>(kBurst));  // 1:1 replies
  EXPECT_GE(ok, 1u);
  EXPECT_GE(rejected, 1u);
  EXPECT_EQ(ok + rejected, static_cast<std::size_t>(kBurst));

  // After the burst drains the service is healthy again.
  JobReply after = wait_submit(service, "id=after\napp=bfs\nnodes=8\n");
  EXPECT_EQ(after.status, JobReply::Status::kOk);
}

TEST(ServeService, ThrowingJobsAreIsolated) {
  // graph=moebius parses but cannot be built; the job must come back as an
  // ok-status reply whose report documents the error — and the worker must
  // survive to run the next job.
  ServiceConfig config;
  config.workers = 1;
  Service service(config);
  JobReply broken = wait_submit(service, "id=b\napp=bfs\ngraph=moebius\n");
  EXPECT_EQ(broken.status, JobReply::Status::kInvalid);  // caught at validate

  // Deadline starvation *is* admissible — it throws mid-run, inside the
  // worker, and must still produce a structured report.
  JobReply starved = wait_submit(
      service, "id=s\napp=diameter\nnodes=24\ndeadline_rounds=3\n");
  EXPECT_EQ(starved.status, JobReply::Status::kOk);
  EXPECT_NE(starved.body.find("deadline_exceeded"), std::string::npos);

  JobReply healthy = wait_submit(service, "id=h\napp=bfs\nnodes=8\n");
  EXPECT_EQ(healthy.status, JobReply::Status::kOk);
}

TEST(ServeService, IdenticalJobsYieldIdenticalBodiesUnderLoad) {
  // The full-service determinism statement: the same (job, seed) submitted
  // twice amid unrelated load, at different thread budgets, produces
  // byte-identical report bodies.
  ServiceConfig config;
  config.workers = 4;
  Service service(config);
  std::string bodies[2];
  for (int side = 0; side < 2; ++side) {
    // Unrelated load alongside the probe.
    for (int i = 0; i < 4; ++i) {
      service.submit("id=noise\napp=leader\nnodes=12\nseed=" +
                         std::to_string(100 + side * 10 + i) + "\n",
                     [](const JobReply&) {});
    }
    JobReply probe = wait_submit(
        service, std::string("id=p\napp=multibfs\nnodes=18\nseed=5\ndrop=0.02\n") +
                     (side == 0 ? "threads=1\n" : "threads=8\n"));
    ASSERT_EQ(probe.status, JobReply::Status::kOk);
    bodies[side] = probe.body;
  }
  EXPECT_EQ(bodies[0], bodies[1]);
}

TEST(ServeService, ReadThroughCacheServesIdenticalJobsByteIdentically) {
  // The read-through contract: with a cache_dir configured, the second
  // submission of the same (job, seed) — even under a different client id
  // and thread budget — is served from the store, byte-identical, and the
  // hit/miss counters say which path ran.
  namespace fs = std::filesystem;
  const fs::path cache_dir =
      fs::path(::testing::TempDir()) / "serve_read_through_cache";
  fs::remove_all(cache_dir);

  ServiceConfig config;
  config.workers = 2;
  config.cache_dir = cache_dir.string();
  Service service(config);

  JobReply cold = wait_submit(
      service, "id=c1\napp=bfs\nnodes=14\nseed=9\ndrop=0.03\nthreads=1\n");
  ASSERT_EQ(cold.status, JobReply::Status::kOk);
  JobReply warm = wait_submit(
      service, "id=c2\napp=bfs\nnodes=14\nseed=9\ndrop=0.03\nthreads=8\n");
  ASSERT_EQ(warm.status, JobReply::Status::kOk);
  EXPECT_EQ(cold.body, warm.body);

  Service::Stats stats = service.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);

  // A semantically different job must not be served from the same entry.
  JobReply other = wait_submit(
      service, "id=c3\napp=bfs\nnodes=14\nseed=10\ndrop=0.03\n");
  ASSERT_EQ(other.status, JobReply::Status::kOk);
  EXPECT_NE(other.body, cold.body);
  EXPECT_EQ(service.stats().cache_misses, 2u);
  fs::remove_all(cache_dir);
}

TEST(ServeService, QuantumAppResubmissionIsACacheHit) {
  // A Theorem 8 app (Lemma 21) through the service: faulty reliable links,
  // and the resubmission is served from the cache with identical bytes.
  namespace fs = std::filesystem;
  const fs::path cache_dir = fs::path(::testing::TempDir()) / "serve_quantum_cache";
  fs::remove_all(cache_dir);

  ServiceConfig config;
  config.workers = 2;
  config.cache_dir = cache_dir.string();
  Service service(config);

  const std::string spec =
      "app=diameter_q\ngraph=random\nnodes=20\nseed=3\ntransport=reliable\n"
      "drop=0.05\n";
  JobReply cold = wait_submit(service, "id=q1\n" + spec);
  ASSERT_EQ(cold.status, JobReply::Status::kOk);
  EXPECT_NE(cold.body.find("\"success\": true"), std::string::npos) << cold.body;
  JobReply warm = wait_submit(service, "id=q2\n" + spec);
  ASSERT_EQ(warm.status, JobReply::Status::kOk);
  EXPECT_EQ(cold.body, warm.body);
  EXPECT_EQ(service.stats().cache_misses, 1u);
  EXPECT_EQ(service.stats().cache_hits, 1u);
  fs::remove_all(cache_dir);
}

TEST(ServeService, CorruptCacheEntryIsRecomputedNotServed) {
  namespace fs = std::filesystem;
  const fs::path cache_dir =
      fs::path(::testing::TempDir()) / "serve_corrupt_cache";
  fs::remove_all(cache_dir);

  ServiceConfig config;
  config.workers = 1;
  config.cache_dir = cache_dir.string();
  Service service(config);

  const std::string spec = "id=k1\napp=leader\nnodes=10\nseed=4\n";
  JobReply first = wait_submit(service, spec);
  ASSERT_EQ(first.status, JobReply::Status::kOk);

  // Flip a byte in the single sealed entry behind the service's back.
  fs::path entry;
  for (const fs::directory_entry& item :
       fs::recursive_directory_iterator(cache_dir / "objects")) {
    if (item.is_regular_file()) entry = item.path();
  }
  ASSERT_FALSE(entry.empty());
  {
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>('~'));
  }

  JobReply second = wait_submit(service, spec);
  ASSERT_EQ(second.status, JobReply::Status::kOk);
  EXPECT_EQ(second.body, first.body);  // recomputed, not parroted corruption
  EXPECT_EQ(service.stats().cache_hits, 0u);
  fs::remove_all(cache_dir);
}

// -------------------------------------------------------------- the backoff

TEST(ServeBackoff, DeterministicCappedAndJittered) {
  BackoffParams params;  // base 10ms, cap 640ms
  // Pure function: same (seed, stream, attempt) -> same delay.
  for (std::uint32_t attempt = 0; attempt < 12; ++attempt) {
    EXPECT_EQ(backoff_delay_ms(params, 3, attempt),
              backoff_delay_ms(params, 3, attempt));
  }
  // Never exceeds the cap, even deep into the attempt series (shift
  // saturation, mirroring ReliableParams::rto_cap's discipline).
  for (std::uint32_t attempt = 0; attempt < 80; ++attempt) {
    EXPECT_LE(backoff_delay_ms(params, 1, attempt), params.cap_ms);
    EXPECT_GE(backoff_delay_ms(params, 1, attempt), 1u);
  }
  // Grows (modulo jitter) before the cap: attempt 6 must beat attempt 0's
  // worst case.
  EXPECT_GT(backoff_delay_ms(params, 2, 6), params.base_ms);
}

TEST(ServeBackoff, DelaysArePinned) {
  // Exact delays over a (stream, attempt) grid, so a refactor of the mixer
  // or the cap-and-jitter step cannot silently reshape the schedule. Two
  // parameter sets: the defaults (cap reached at attempt 6) and a far cap
  // that keeps the exponential phase visible.
  BackoffParams far;
  far.base_ms = 3;
  far.cap_ms = 100000;
  far.seed = 42;
  const std::uint64_t streams[] = {0, 1, 7, 1000};
  const std::uint64_t attempts[] = {0, 1, 2, 3, 4, 5, 6, 7, 10, 20, 63, 64, 100};
  const std::uint64_t want_default[4][13] = {
      {10, 16, 37, 62, 152, 248, 640, 550, 483, 617, 583, 484, 632},
      {10, 18, 34, 63, 145, 258, 481, 629, 574, 538, 584, 553, 527},
      {10, 18, 39, 79, 146, 268, 603, 512, 539, 541, 532, 536, 499},
      {10, 17, 40, 72, 123, 267, 634, 572, 624, 548, 520, 514, 599},
  };
  const std::uint64_t want_far[4][13] = {
      {3, 6, 12, 22, 47, 95, 161, 384, 2658, 98274, 80615, 97989, 94657},
      {3, 6, 11, 20, 37, 94, 148, 371, 2669, 94054, 94295, 95435, 78346},
      {3, 6, 11, 24, 45, 83, 166, 347, 2754, 98724, 77938, 77718, 97098},
      {3, 6, 10, 24, 39, 94, 158, 305, 2934, 88059, 92929, 78228, 85317},
  };
  for (std::size_t s = 0; s < 4; ++s) {
    for (std::size_t a = 0; a < 13; ++a) {
      EXPECT_EQ(backoff_delay_ms(BackoffParams{}, streams[s], attempts[a]),
                want_default[s][a])
          << "stream " << streams[s] << " attempt " << attempts[a];
      EXPECT_EQ(backoff_delay_ms(far, streams[s], attempts[a]), want_far[s][a])
          << "stream " << streams[s] << " attempt " << attempts[a];
    }
  }
}

TEST(ServeBackoff, StreamsDesynchronize) {
  // Different streams (clients) see different jitter at the same attempt —
  // the anti-thundering-herd property. With 32 streams at attempt 4, at
  // least two distinct delays must appear (all-equal would mean the jitter
  // is dead).
  BackoffParams params;
  params.seed = 7;
  std::set<std::uint64_t> distinct;
  for (std::uint64_t stream = 0; stream < 32; ++stream) {
    distinct.insert(backoff_delay_ms(params, stream, 4));
  }
  EXPECT_GT(distinct.size(), 4u);
}

}  // namespace
}  // namespace qcongest::serve
