// Workload "service-mix": qcongestd's stack in process. A serve::Server on
// loopback with workers=2, one client thread and one connection; journal and
// cache in fresh directories for every run. Three phases over one fixed
// request list: open loop at a low and a high fixed rate (about 1/4 and 1/2
// of the capacity measured when the benchmark was defined; constants, never
// re-measured), then a closed-loop saturation phase with a window of four
// outstanding requests. The mix: cold faulty reliable jobs (cache misses,
// journal and cache writes), about a third repeats of specs that have
// already replied (deterministic cache hits, the read path), and a few
// direct-transport jobs. The only workload that touches the frame layer,
// the reactor, admission, pool queueing, the journal and the cache.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "faults.hpp"
#include "host.hpp"
#include "src/cache/key.hpp"
#include "src/cache/store.hpp"
#include "src/serve/frame.hpp"
#include "src/serve/journal.hpp"
#include "src/serve/server.hpp"
#include "src/serve/service.hpp"
#include "src/util/rng.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace qcongest;

// Capacity of this stack on the reference machine (4-core x86-64, 2.1 GHz
// class), saturation phase: about 220 jobs/s. The open-loop rates are fixed
// fractions of it.
constexpr double kLowRate = 55.0;    // ~1/4 of capacity, jobs/s
constexpr double kHighRate = 110.0;  // ~1/2 of capacity, jobs/s
constexpr double kSaturationRate = 220.0;  // sizes the saturation phase
constexpr double kLowShare = 0.3;    // of --seconds
constexpr double kHighShare = 0.3;
constexpr double kSaturationShare = 0.3;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kWindow = 4;   // outstanding requests when saturating
constexpr std::size_t kWarmupJobs = 24;
constexpr std::size_t kRepeatEvery = 3;  // every third request repeats an earlier one
constexpr double kRepeatGapS = 1.0;  // a repeat's original was due >= 1 s earlier
constexpr std::size_t kDirectEvery = 12;
constexpr std::size_t kDirectSlot = 7;  // never a repeat slot (7 % 3 != 2)
constexpr std::size_t kDeadlineRounds = 200000;
constexpr double kTailPct = 95.0;
constexpr int kReplyTimeoutMs = 60000;

struct Request {
  std::string spec;   // full spec text, unique id
  std::size_t original = SIZE_MAX;  // index of the request this repeats
  /// The previous request with the same spec (the original or an earlier
  /// repeat of it). It must have replied before this one is sent, so the
  /// repeat is a cache hit and never coalesces with an identical job still
  /// in flight.
  std::size_t after = SIZE_MAX;
  bool direct = false;
};

std::string with_id(const std::string& spec, const std::string& id) {
  const std::size_t eol = spec.find('\n');
  return "id=" + id + spec.substr(eol);
}

std::string direct_spec(std::uint64_t seed, std::size_t index) {
  static const char* const kApps[] = {"meeting", "dj", "downcast"};
  return "id=x\napp=" + std::string(kApps[index % std::size(kApps)]) +
         "\ngraph=random\nnodes=128\nseed=" + std::to_string(mix_seed(seed, index) % 1000000007ULL) +
         "\nthreads=2\ntransport=direct\n";
}

/// The request list of one run: a pure function of (seed, counts).
std::vector<Request> make_requests(std::uint64_t seed, const std::size_t counts[3]) {
  std::vector<Request> out;
  util::Rng rng(mix_seed(seed, 0xa11ce));
  std::vector<std::size_t> cold;  // indices of first sends
  std::vector<std::size_t> last_send;  // per request: latest request with its spec
  std::size_t cold_counter = 0;
  const double rates[3] = {kLowRate, kHighRate, kSaturationRate};
  for (int phase = 0; phase < 3; ++phase) {
    const auto gap = static_cast<std::size_t>(std::ceil(kRepeatGapS * rates[phase]));
    for (std::size_t k = 0; k < counts[phase]; ++k) {
      const std::size_t i = out.size();
      Request r;
      // Repeats may only name a request due at least kRepeatGapS earlier.
      std::size_t eligible = 0;
      while (eligible < cold.size() && cold[eligible] + gap <= i) ++eligible;
      if (i % kDirectEvery == kDirectSlot) {
        r.spec = with_id(direct_spec(mix_seed(seed, 0xd1), i), "r" + std::to_string(i));
        r.direct = true;
        cold.push_back(i);
      } else if (eligible > 0 && i % kRepeatEvery == kRepeatEvery - 1) {
        r.original = cold[rng.index(eligible)];
        r.after = last_send[r.original];
        last_send[r.original] = i;
        r.spec = with_id(out[r.original].spec, "r" + std::to_string(i));
        r.direct = out[r.original].direct;
      } else {
        r.spec = with_id(faulty_spec(mix_seed(seed, 0xc01d), cold_counter++, true),
                         "r" + std::to_string(i));
        cold.push_back(i);
      }
      last_send.push_back(i);
      out.push_back(std::move(r));
    }
  }
  return out;
}

/// Minimal blocking client over one loopback connection.
class Client {
 public:
  Client() = default;
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void connect(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }

  void send(const std::string& spec) {
    const std::string wire = serve::encode_frame(serve::FrameType::kSubmit, spec);
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      } else if (n < 0 && errno != EINTR) {
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      }
    }
  }

  /// Wait up to `timeout_ns` for input and parse every complete frame.
  /// Returns the frames received (possibly none).
  std::vector<serve::Frame> poll_frames(std::int64_t timeout_ns) {
    std::vector<serve::Frame> frames;
    drain(frames);
    if (!frames.empty()) return frames;
    pollfd pfd{fd_, POLLIN, 0};
    timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
                static_cast<long>(timeout_ns % 1000000000)};
    const int ready = ::ppoll(&pfd, 1, timeout_ns >= 0 ? &ts : nullptr, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
    if (ready > 0) {
      char buf[65536];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n == 0) throw std::runtime_error("server closed the connection");
      if (n > 0) reader_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      drain(frames);
    }
    return frames;
  }

 private:
  void drain(std::vector<serve::Frame>& frames) {
    serve::Frame frame;
    for (;;) {
      const auto r = reader_.next(&frame);
      if (r == serve::FrameReader::Result::kError) {
        throw std::runtime_error("framing: " + reader_.error());
      }
      if (r != serve::FrameReader::Result::kFrame) return;
      frames.push_back(std::move(frame));
    }
  }

  int fd_ = -1;
  serve::FrameReader reader_;
};

struct Reply {
  std::size_t index = 0;
  bool ok = false;
  /// Kept only for an original that a later repeat (a cache hit) must match.
  std::string body;
  ReportFacts facts;
  bool hit_mismatch = false;  // a repeat whose body differs from its original's
};

/// `id=r<index>\nstatus=...\n\n<body>`.
Reply parse_reply(const serve::Frame& frame) {
  Reply reply;
  const std::string& p = frame.payload;
  if (p.rfind("id=r", 0) != 0) throw std::runtime_error("reply without a request id");
  reply.index = std::stoull(p.substr(4, p.find('\n') - 4));
  reply.ok = frame.type == serve::FrameType::kResult && p.find("\nstatus=ok\n") != std::string::npos;
  const std::size_t blank = p.find("\n\n");
  if (reply.ok && blank != std::string::npos) reply.body = p.substr(blank + 2);
  return reply;
}

/// An in-process server with fresh journal and cache directories.
class LiveServer {
 public:
  explicit LiveServer(const std::string& dir) : dir_(dir) {
    make_fresh_dir(dir_);
    serve::ServerConfig config;
    config.service.workers = kWorkers;
    // Admission never sheds in this workload: the request list must produce
    // the same cache and journal counts on every run.
    config.service.max_pending = 1024;
    config.service.default_deadline_rounds = kDeadlineRounds;
    config.service.cache_dir = dir_ + "/cache";
    config.service.journal_dir = dir_ + "/journal";
    server_ = std::make_unique<serve::Server>(config);
    std::string error;
    if (!server_->start(&error)) throw std::runtime_error("server start: " + error);
    thread_ = std::thread([this] { server_->run(); });
  }
  ~LiveServer() {
    server_->request_stop();
    thread_.join();
    server_.reset();
    remove_tree(dir_);
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  std::uint16_t port() const { return server_->port(); }
  serve::Service& service() { return server_->service(); }

 private:
  std::string dir_;
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
};

struct PhaseResult {
  LatencyBook latency;
  LatenessMeter lateness;
  double wall_s = 0.0;
  std::size_t sent = 0;
};

class ServiceMix {
 public:
  ServiceMix(const Args& args, Result& result) : args_(args), result_(result) {
    counts_[0] = static_cast<std::size_t>(std::lround(kLowRate * kLowShare * args.seconds));
    counts_[1] = static_cast<std::size_t>(std::lround(kHighRate * kHighShare * args.seconds));
    counts_[2] =
        static_cast<std::size_t>(std::lround(kSaturationRate * kSaturationShare * args.seconds));
    requests_ = make_requests(args.seed, counts_);
    referenced_.assign(requests_.size(), false);
    for (const Request& r : requests_) {
      if (r.original != SIZE_MAX) referenced_[r.original] = true;
    }
  }

  /// Fresh server, then an untimed warm-up of distinct specs.
  void setup(const std::string& dir) {
    client_.reset();
    server_.reset();
    server_ = std::make_unique<LiveServer>(dir);
    client_ = std::make_unique<Client>();
    client_->connect(server_->port());
    std::vector<Request> warm;
    for (std::size_t i = 0; i < kWarmupJobs; ++i) {
      warm.push_back({with_id(faulty_spec(kWarmupSeed, i, true),
                              "r" + std::to_string(i)),
                      SIZE_MAX, false});
    }
    PhaseResult unused;
    std::vector<Clock::time_point> done(warm.size());
    run_closed(warm, 0, warm.size(), unused, done, nullptr);
    warm_submitted_ = server_->service().stats().submitted;
    warm_appends_ = server_->service().journal()->stats().appends;
    warm_bytes_ = server_->service().journal()->stats().bytes_appended;
  }

  /// Send requests [begin, end) on the fixed-rate schedule. Latency runs
  /// from each due time; a repeat waits for the reply to the previous
  /// request with its spec.
  void run_open(std::size_t begin, std::size_t end, double rate, PhaseResult& out) {
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
    OpenLoopSchedule schedule(t0, rate);
    std::size_t next = begin;
    std::size_t outstanding = 0;
    Clock::time_point last_progress = Clock::now();
    while (next < end || outstanding > 0) {
      // The host-speed kernel runs on this thread every 250 ms; a reply that
      // arrives meanwhile is read up to one kernel run (~3 ms) late.
      host_speed().maybe_sample();
      const Clock::time_point now = Clock::now();
      const bool sendable = next < end && ready_to_send(next);
      const Clock::time_point due = schedule.due(next - begin);
      if (sendable && now >= due) {
        sent_at_[next] = now;
        due_at_[next] = due;
        out.lateness.record(due, now);
        client_->send(requests_[next].spec);
        ++next;
        ++outstanding;
        last_progress = now;
        continue;
      }
      const std::int64_t wait_ns =
          sendable ? std::chrono::duration_cast<std::chrono::nanoseconds>(due - now).count()
                   : 100000000LL;
      const auto frames = client_->poll_frames(wait_ns);
      if (!frames.empty()) {
        last_progress = Clock::now();
      } else if (ms_between(last_progress, Clock::now()) > kReplyTimeoutMs) {
        throw std::runtime_error("timed out waiting for replies");
      }
      for (const serve::Frame& f : frames) {
        const Reply& r = accept(f);
        --outstanding;
        if (r.ok) {
          out.latency.record_ok(ms_between(due_at_[r.index], replied_at_[r.index]));
        } else {
          out.latency.record_missed();
        }
      }
    }
    out.wall_s = ms_between(t0, Clock::now()) / 1000.0;
    out.sent = end - begin;
  }

  /// Closed loop with kWindow outstanding requests over [begin, end).
  void run_closed(const std::vector<Request>& list, std::size_t begin, std::size_t end,
                  PhaseResult& out, std::vector<Clock::time_point>& sent,
                  std::vector<Reply>* replies) {
    const Clock::time_point t0 = Clock::now();
    std::size_t next = begin;
    std::size_t outstanding = 0;
    Clock::time_point last_progress = t0;
    while (next < end || outstanding > 0) {
      if (replies != nullptr) host_speed().maybe_sample();
      if (next < end && outstanding < kWindow &&
          (replies == nullptr || ready_to_send(next))) {
        sent[next] = Clock::now();
        client_->send(list[next].spec);
        ++next;
        ++outstanding;
        continue;
      }
      const auto frames = client_->poll_frames(100000000LL);
      if (!frames.empty()) {
        last_progress = Clock::now();
      } else if (ms_between(last_progress, Clock::now()) > kReplyTimeoutMs) {
        throw std::runtime_error("timed out waiting for replies");
      }
      for (const serve::Frame& f : frames) {
        const Clock::time_point at = Clock::now();
        --outstanding;
        if (replies == nullptr) continue;  // warm-up
        const Reply& r = accept(f);
        if (r.ok) {
          out.latency.record_ok(ms_between(sent[r.index], at));
        } else {
          out.latency.record_missed();
        }
      }
    }
    out.wall_s = ms_between(t0, Clock::now()) / 1000.0;
    out.sent = end - begin;
  }

  /// Run the three phases; fills the end-to-end metrics (when `report`).
  void run_phases(bool report) {
    const std::size_t n = requests_.size();
    sent_at_.assign(n, Clock::time_point{});
    due_at_.assign(n, Clock::time_point{});
    replied_at_.assign(n, Clock::time_point{});
    replies_.assign(n, Reply{});
    replied_.assign(n, false);
    const std::size_t b1 = counts_[0], b2 = counts_[0] + counts_[1];

    const double cpu0 = process_cpu_seconds();
    run_open(0, b1, kLowRate, low_);
    run_open(b1, b2, kHighRate, high_);
    run_closed(requests_, b2, n, sat_, sent_at_, &replies_);
    const double cpu_s = process_cpu_seconds() - cpu0;
    verify();
    if (!report) return;

    const Tail sat_tail = sat_.latency.tail(kTailPct);
    const Tail low_tail = low_.latency.tail(kTailPct);
    const Tail high_tail = high_.latency.tail(kTailPct);
    result_.set("job_ms.p50", sat_.latency.p50(), "ms");
    result_.set("job_ms.tail", sat_tail.value, "ms");
    result_.set("jobs_per_s", static_cast<double>(sat_.sent) / sat_.wall_s, "1/s");
    result_.set("cpu_ms_per_job", cpu_s * 1000.0 / static_cast<double>(n), "ms");
    result_.set("reply_ms.p50.low", low_.latency.p50(), "ms");
    result_.set("reply_ms.tail.low", low_tail.value, "ms");
    result_.set("reply_ms.p50.high", high_.latency.p50(), "ms");
    result_.set("reply_ms.tail.high", high_tail.value, "ms");
    char line[320];
    std::snprintf(line, sizeof line,
                  "open loop %g/s x %zu and %g/s x %zu, then closed loop (window %zu) x %zu; "
                  "tails: low %s, high %s, saturation %s",
                  kLowRate, counts_[0], kHighRate, counts_[1], kWindow, counts_[2],
                  low_tail.describe().c_str(), high_tail.describe().c_str(),
                  sat_tail.describe().c_str());
    result_.note(line);
    std::snprintf(line, sizeof line,
                  "generator lateness p50 %.3f ms, max %.3f ms (low); p50 %.3f ms, max %.3f ms (high)",
                  low_.lateness.p50_ms(), low_.lateness.max_ms(), high_.lateness.p50_ms(),
                  high_.lateness.max_ms());
    result_.note(line);
  }

  /// Every reply checked: success, byte identity of hits, exact counts.
  void verify() {
    const std::size_t n = requests_.size();
    std::size_t ok = 0, correct = 0, repeats = 0, originals = 0;
    SimCost sim;
    for (std::size_t i = 0; i < n; ++i) {
      const Reply& r = replies_[i];
      if (!replied_[i] || !r.ok) continue;
      ++ok;
      const ReportFacts& facts = r.facts;
      if (facts.success && facts.parsed && !facts.has_error) {
        ++correct;
      } else {
        result_.mismatch("service request " + std::to_string(i) + ": report success is not true");
      }
      sim.rounds += facts.cost.rounds;
      sim.words += facts.cost.messages;
      if (requests_[i].original != SIZE_MAX) {
        ++repeats;
        if (r.hit_mismatch) {
          result_.mismatch("service request " + std::to_string(i) +
                           ": cache hit body differs from its miss");
        }
      } else {
        ++originals;
      }
    }
    const serve::Service::Stats s = server_->service().stats();
    const std::size_t appends = server_->service().journal()->stats().appends - warm_appends_;
    const std::size_t expected_appends = 3 * originals + 2 * repeats;
    auto expect = [&](const char* what, std::size_t got, std::size_t want) {
      if (got != want) {
        result_.mismatch(std::string("service ") + what + " = " + std::to_string(got) +
                         ", the request list implies " + std::to_string(want));
      }
    };
    expect("submitted", s.submitted - warm_submitted_, n);
    expect("cache hits", s.cache_hits, repeats);
    expect("cache misses", s.cache_misses - kWarmupJobs, originals);
    expect("coalesced", s.coalesced, 0);
    expect("rejected", s.rejected_overload, 0);
    expect("journal appends", appends, expected_appends);
    result_.attempted += n;
    result_.failed += n - ok;
    const Ratio ok_ratio{static_cast<double>(ok), static_cast<double>(n)};
    const Ratio correct_ratio{static_cast<double>(correct), static_cast<double>(ok)};
    result_.set("ok_ratio", ok_ratio.value(), "ratio");
    result_.set("correct_ratio", correct_ratio.value(), "ratio");
    result_.set("sim_rounds", static_cast<double>(sim.rounds), "rounds");
    result_.set("sim_words", static_cast<double>(sim.words), "words");
    result_.note("ok_ratio = " + ok_ratio.describe() + " requests; correct_ratio = " +
                 correct_ratio.describe() + " replies");
    result_.note("cache hits " + std::to_string(s.cache_hits) + ", misses " +
                 std::to_string(s.cache_misses - kWarmupJobs) + ", coalesced " +
                 std::to_string(s.coalesced) + ", journal appends " + std::to_string(appends) +
                 " (all as the request list implies)");
    hits_ = s.cache_hits;
    misses_ = s.cache_misses - kWarmupJobs;
    journal_bytes_ = server_->service().journal()->stats().bytes_appended - warm_bytes_;
  }

  void shutdown() {
    client_.reset();
    server_.reset();
  }

  const std::vector<Request>& requests() const { return requests_; }
  const std::vector<Reply>& replies() const { return replies_; }
  const PhaseResult& low() const { return low_; }
  const PhaseResult& high() const { return high_; }
  const PhaseResult& saturation() const { return sat_; }
  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }
  std::size_t journal_bytes() const { return journal_bytes_; }
  serve::Service& service() { return server_->service(); }

  /// Median submit-to-reply of the low phase's cold faulty requests.
  double low_cold_p50_ms() const {
    std::vector<double> ms;
    for (std::size_t i = 0; i < counts_[0]; ++i) {
      if (requests_[i].original == SIZE_MAX && !requests_[i].direct && replies_[i].ok) {
        ms.push_back(ms_between(due_at_[i], replied_at_[i]));
      }
    }
    return median(ms);
  }

 private:
  bool ready_to_send(std::size_t i) const {
    const std::size_t after = requests_[i].after;
    return after == SIZE_MAX || replied_[after];
  }

  const Reply& accept(const serve::Frame& frame) {
    const Clock::time_point at = Clock::now();
    Reply r = parse_reply(frame);
    if (r.index >= replies_.size() || replied_[r.index]) {
      throw std::runtime_error("unexpected reply r" + std::to_string(r.index));
    }
    // Bodies are large (tens of KiB): grade each on arrival and keep only
    // those a later cache hit is compared against.
    r.facts = read_report(r.body);
    const std::size_t orig = requests_[r.index].original;
    if (orig != SIZE_MAX) r.hit_mismatch = r.body != replies_[orig].body;
    if (!referenced_[r.index]) r.body = std::string();
    replied_at_[r.index] = at;
    replied_[r.index] = true;
    const std::size_t index = r.index;
    replies_[index] = std::move(r);
    const Reply& stored = replies_[index];
    if (Tracer* t = tracer()) {
      t->record("serve.request", sent_at_[index], at, -1, static_cast<std::uint32_t>(index));
    }
    return stored;
  }

  const Args& args_;
  Result& result_;
  std::size_t counts_[3] = {0, 0, 0};
  std::vector<Request> requests_;
  std::unique_ptr<LiveServer> server_;
  std::unique_ptr<Client> client_;
  std::vector<Clock::time_point> sent_at_, due_at_, replied_at_;
  std::vector<Reply> replies_;
  std::vector<bool> replied_;
  std::vector<bool> referenced_;  // request i is the original of a later repeat
  PhaseResult low_, high_, sat_;
  std::size_t warm_submitted_ = 0;
  std::size_t warm_appends_ = 0;
  std::size_t warm_bytes_ = 0;
  std::size_t hits_ = 0, misses_ = 0, journal_bytes_ = 0;
};

/// The low phase replayed on an in-process Service (no socket, fresh cache
/// and journal) on the same schedule, repeats again waiting for the previous
/// request with their spec. Sets serve.queue_wait_ms (submit-to-callback p50 minus the
/// bare run p50 of the same cold specs) and serve.wire_ms (socket p50 minus
/// in-process p50, cold faulty requests of both).
void in_process_probe(const Args& args, const std::vector<Request>& low, Result& result,
                      double socket_cold_p50) {
  const std::string dir = args.work_dir + "/inproc";
  make_fresh_dir(dir);
  const std::size_t count = low.size();
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<double> callback_ms(count, 0.0);
  std::vector<bool> answered(count, false);
  std::size_t done = 0;
  {
    serve::ServiceConfig config;
    config.workers = kWorkers;
    config.max_pending = 1024;
    config.default_deadline_rounds = kDeadlineRounds;
    config.cache_dir = dir + "/cache";
    config.journal_dir = dir + "/journal";
    serve::Service service(config);
    OpenLoopSchedule schedule(Clock::now() + std::chrono::milliseconds(5), kLowRate);
    for (std::size_t i = 0; i < count; ++i) {
      std::this_thread::sleep_until(schedule.due(i));
      if (low[i].after != SIZE_MAX) {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return answered[low[i].after]; });
      }
      const Clock::time_point due = schedule.due(i);
      service.submit(low[i].spec, [&, i, due](const serve::JobReply&) {
        const double ms = ms_between(due, Clock::now());
        std::lock_guard<std::mutex> lock(mutex);
        callback_ms[i] = ms;
        answered[i] = true;
        ++done;
        cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return done == count; });
  }
  remove_tree(dir);
  std::vector<double> inproc_ms, run_ms;
  for (std::size_t i = 0; i < count; ++i) {
    if (low[i].original != SIZE_MAX || low[i].direct) continue;
    inproc_ms.push_back(callback_ms[i]);
    const serve::JobSpec spec = parse_spec_or_throw(low[i].spec);
    const Clock::time_point t0 = Clock::now();
    (void)serve::run_job_report(spec, kDeadlineRounds);
    run_ms.push_back(ms_between(t0, Clock::now()));
  }
  const double inproc_p50 = median(inproc_ms);
  set_layer(result, "serve.queue_wait_ms", inproc_p50 - median(run_ms));
  set_layer(result, "serve.wire_ms", socket_cold_p50 - inproc_p50);
}

}  // namespace

Result run_service_mix(const Args& args) {
  Result result;
  make_fresh_dir(args.work_dir);
  // A traced run's phases report into `phases`; only per-layer metrics go
  // into the result.
  Result phases;
  ServiceMix w(args, args.trace ? phases : result);
  int rep = 0;
  const double setup_s = median_setup_seconds(
      kSetupReps, [&] { w.setup(args.work_dir + "/server" + std::to_string(rep++)); });

  if (!args.trace) {
    w.run_phases(true);
    result.set("setup_s", setup_s, "s");
    w.shutdown();
    remove_tree(args.work_dir);
    return result;
  }

  // Traced invocation: the request list untraced on a fresh server (for the
  // tracing overhead), then the same phases with spans.
  Result plain_phases;
  ServiceMix plain(args, plain_phases);
  plain.setup(args.work_dir + "/plain");
  plain.run_phases(false);
  const double plain_rate =
      static_cast<double>(plain.saturation().sent) / plain.saturation().wall_s;
  plain.shutdown();
  Tracer tracer;
  set_tracer(&tracer);
  w.run_phases(false);
  set_tracer(nullptr);
  const double traced_rate = static_cast<double>(w.saturation().sent) / w.saturation().wall_s;
  const double socket_cold_p50 = w.low_cold_p50_ms();
  const double late_p50 = median({w.low().lateness.p50_ms(), w.high().lateness.p50_ms()});
  const serve::Service::Stats stats = w.service().stats();
  const std::size_t hits = w.hits(), misses = w.misses();
  result.attempted = phases.attempted;
  result.failed = phases.failed;

  // Direct calls into the serve, journal and cache layers on this run's
  // specs and reports.
  const std::vector<Request>& requests = w.requests();
  const std::vector<Reply>& replies = w.replies();
  const auto n = static_cast<double>(requests.size());
  std::vector<serve::JobSpec> specs;
  std::vector<std::string> keys;
  const std::string salt = cache::code_version_salt();
  const Clock::time_point p0 = Clock::now();
  for (const Request& r : requests) {
    serve::JobSpec spec;
    std::string error;
    if (!serve::parse_job_spec(r.spec, &spec, &error) ||
        !serve::validate_job_spec(spec, serve::JobLimits{}, &error)) {
      result.mismatch("spec rejected by parse/validate: " + error);
    }
    specs.push_back(std::move(spec));
  }
  const Clock::time_point p1 = Clock::now();
  for (const serve::JobSpec& spec : specs) {
    keys.push_back(serve::job_cache_key(spec, kDeadlineRounds, salt));
  }
  const Clock::time_point p2 = Clock::now();
  set_layer(result, "serve.parse_us", ms_between(p0, p1) * 1000.0 / n);
  set_layer(result, "serve.key_us", ms_between(p1, p2) * 1000.0 / n);

  {
    const std::string jdir = args.work_dir + "/journal-probe";
    make_fresh_dir(jdir);
    serve::Journal journal(serve::JournalConfig{jdir});
    const Clock::time_point j0 = Clock::now();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      serve::JournalRecord rec;
      rec.type = serve::JournalRecordType::kAccepted;
      rec.key = keys[i];
      rec.id = specs[i].id;
      rec.spec = requests[i].spec;
      journal.append(rec);
    }
    set_layer(result, "journal.append_us", ms_between(j0, Clock::now()) * 1000.0 / n);
  }
  {
    cache::Store store(args.work_dir + "/store-probe");
    std::vector<std::size_t> cold;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].original == SIZE_MAX && !replies[i].body.empty()) cold.push_back(i);
    }
    const Clock::time_point s0 = Clock::now();
    for (std::size_t i : cold) (void)store.put(keys[i], replies[i].body);
    const Clock::time_point s1 = Clock::now();
    std::string blob;
    for (std::size_t i : cold) {
      if (!store.get(keys[i], &blob) || blob != replies[i].body) {
        result.mismatch("cache store returned different bytes");
      }
    }
    const Clock::time_point s2 = Clock::now();
    const auto m = static_cast<double>(cold.size());
    set_layer(result, "cache.put_us", Ratio{ms_between(s0, s1) * 1000.0, m}.value());
    set_layer(result, "cache.get_us", Ratio{ms_between(s1, s2) * 1000.0, m}.value());
  }
  set_layer(result, "journal.bytes_per_job", static_cast<double>(w.journal_bytes()) / n);
  w.shutdown();

  const Ratio hit_ratio{static_cast<double>(hits), static_cast<double>(hits + misses)};
  set_layer(result, "cache.hit_ratio", hit_ratio.value());
  result.note("cache.hit_ratio = " + hit_ratio.describe());
  const Ratio shed{static_cast<double>(stats.rejected_overload),
                   static_cast<double>(stats.submitted)};
  set_layer(result, "serve.shed_ratio", shed.value());
  result.note("serve.shed_ratio = " + shed.describe());
  set_layer(result, "serve.coalesced", static_cast<double>(stats.coalesced));
  set_layer(result, "bench.gen_late_ms", late_p50);
  in_process_probe(args, {requests.begin(), requests.begin() + static_cast<std::ptrdiff_t>(w.low().sent)},
                   result, socket_cold_p50);

  const Ratio overhead{traced_rate, plain_rate};
  set_layer(result, "bench.trace_overhead", overhead.value());
  result.note("bench.trace_overhead = traced/untraced saturation jobs_per_s = " +
              overhead.describe());
  for (const Result* r : {&phases, &plain_phases}) {
    for (const std::string& line : r->notes) {
      if (line.rfind("MISMATCH", 0) == 0) result.mismatch(line.substr(9));
    }
    if (!r->correct) result.correct = false;
  }
  if (!args.span_path.empty()) tracer.write_jsonl(args.span_path);
  remove_tree(args.work_dir);
  return result;
}

}  // namespace perfbench
