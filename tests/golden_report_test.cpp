// Pinned report bytes across commits. Each case runs one faulty job over the
// reliable transport through serve::run_job_report and compares the
// SHA-256 of the whole report body with a digest recorded before the
// engine's reliable-pass scheduling and the trace tallies were reworked.
// A change that only makes the host faster must leave every digest alone:
// rounds, words, fault counters, recovery tax, the trace digest and the
// per-round series are all inside the body.

#include <gtest/gtest.h>

#include <string>

#include "src/cache/sha256.hpp"
#include "src/serve/job.hpp"

namespace qcongest::serve {
namespace {

struct GoldenCase {
  const char* spec;
  const char* sha256;
};

// Every app of the faults-reliable benchmark list, the three drop rates
// with corrupt and duplicate at 0.01, one amnesia crash with recovery and
// one plain crash-restart.
const GoldenCase kCases[] = {
    {"id=g0\napp=bfs\ngraph=random\nnodes=32\nseed=11\ntransport=reliable\n"
     "drop=0.02\ncorrupt=0.01\nduplicate=0.01\n",
     "32cab13e52bc9d8c4878508861e8e1466ec50c2ab032012ec834d45ce47aaf41"},
    {"id=g1\napp=downcast\ngraph=random\nnodes=28\nseed=12\ntransport=reliable\n"
     "drop=0.05\ncorrupt=0.01\nduplicate=0.01\n",
     "644c2d5daae46a7abaf67bdf2e83132d763ab9e936b803b7b16ddbcf8a3ea9e5"},
    {"id=g2\napp=convergecast\ngraph=random\nnodes=36\nseed=13\ntransport=reliable\n"
     "drop=0.1\ncorrupt=0.01\nduplicate=0.01\n",
     "e6d1fff96b36c50e2d609e2e458238fbea222b3e11beee59179cf60b6dc0240f"},
    {"id=g3\napp=multibfs\ngraph=random\nnodes=24\nseed=14\ntransport=reliable\n"
     "drop=0.02\ncorrupt=0.01\nduplicate=0.01\n",
     "74a250e14590aa20f91cdcb853e45aee1fd2788e60a544a2debf4a263e404485"},
    {"id=g4\napp=dj\ngraph=random\nnodes=30\nseed=15\ntransport=reliable\n"
     "drop=0.05\ncorrupt=0.01\nduplicate=0.01\n",
     "8aa0c717aab7f58d192f860a416a0992b73fa97f3d9edd70aa0b72533a7b42dc"},
    {"id=g5\napp=meeting\ngraph=random\nnodes=32\nseed=16\ntransport=reliable\n"
     "drop=0.1\ncorrupt=0.01\nduplicate=0.01\n",
     "35f0004e1dbb7b89e41f112d2fe0da3a1a8877184a28ac27170c6d95828fa7fe"},
    {"id=g6\napp=leader\ngraph=random\nnodes=24\nseed=39\ntransport=reliable\n"
     "drop=0.05\ncorrupt=0.01\nduplicate=0.01\ncrash=12:30:60:amnesia\nrecover=1\n",
     "7c5fd1b22a5048f927e7d3381b67e001044eb80af8362c575feea4b70403da5e"},
    {"id=g7\napp=bfs\ngraph=random\nnodes=36\nseed=18\ntransport=reliable\n"
     "drop=0.05\ncorrupt=0.01\nduplicate=0.01\ncrash=7:10:40\n",
     "d98229878905d66a20db252e57329012977772b714aed5637576bccd305c99f6"},
};

TEST(GoldenReport, FaultyReliableBodiesKeepTheirDigests) {
  for (const GoldenCase& c : kCases) {
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(parse_job_spec(c.spec, &spec, &error)) << error;
    ASSERT_TRUE(validate_job_spec(spec, JobLimits{}, &error)) << error;
    const std::string body = run_job_report(spec, /*default_deadline_rounds=*/200000);
    EXPECT_NE(body.find("\"success\": true"), std::string::npos) << spec.id;
    EXPECT_EQ(cache::sha256_hex(body), c.sha256) << spec.id;
  }
}

}  // namespace
}  // namespace qcongest::serve
