#pragma once

#include <cstdint>
#include <vector>

#include "src/net/engine.hpp"
#include "src/net/fault.hpp"
#include "src/net/trace.hpp"
#include "src/obs/round_profiler.hpp"
#include "src/recover/checkpoint.hpp"
#include "src/recover/watchdog.hpp"

namespace qcongest::apps {

/// Network-simulation options shared by the applications.
struct NetOptions {
  /// CONGEST(B): words per edge per direction per round.
  std::size_t bandwidth = 1;
  /// Engine seed (node-local randomness).
  std::uint64_t seed = 1;
  /// When non-empty (one bit per node), the run reports the words crossing
  /// this bipartition in RunResult::cut_words — the induced two-party
  /// communication of the reduction arguments (Lemmas 11/13/15, Thm 18).
  std::vector<bool> tracked_cut;
  /// Deterministic fault schedule applied to every delivery (drops,
  /// corruption, duplication, crash windows). Default: perfect network.
  net::FaultPlan fault_plan;
  /// kReliable runs every protocol over the ack/retransmit link layer
  /// (src/net/reliable.hpp) — required for correctness under an active
  /// fault plan unless the app brings its own recovery.
  net::Transport transport = net::Transport::kDirect;
  net::ReliableParams reliable_params;

  // The taps trace, observer, metrics and watchdog: when non-null, added to
  // the engine's observer list in the fixed order metrics, trace, observer,
  // watchdog (see configure). Each must outlive every run of the configured
  // engine.

  /// Every admitted send of every run is recorded here — the determinism
  /// auditor in tools/chaos_run diffs two such recordings byte-for-byte.
  net::Trace* trace = nullptr;
  /// A further passive observer; the model-conformance verifier
  /// (src/check/verifier.hpp) is the intended client.
  net::EngineObserver* observer = nullptr;
  /// The metrics tap: a RoundProfiler recording per-round traffic series
  /// and phase spans for run reports (src/obs).
  obs::RoundProfiler* metrics = nullptr;
  /// Worker threads for the engine's deterministic sharded round execution
  /// (Engine::set_threads). 1 = serial; any value produces byte-identical
  /// runs. No-op under Transport::kReliable.
  std::size_t threads = 1;
  /// Crash-with-amnesia recovery: when enabled, the engine checkpoints node
  /// state per CheckpointPolicy and amnesia-crashed nodes rebuild themselves
  /// from their last checkpoint plus neighbor-assisted catch-up (src/recover).
  /// The extra traffic is reported in RunResult::recovery_words/rounds.
  recover::RecoveryPolicy recovery;
  /// A run-level liveness watchdog: it converts quiescence-without-
  /// termination and retransmit-storm livelock into a thrown
  /// recover::LivelockError naming suspected-dead nodes. Added last, so the
  /// other taps have recorded the round it throws from.
  recover::Watchdog* watchdog = nullptr;

  /// Apply cut tracking, the fault plan, the transport, recovery, and the
  /// set taps to an engine (bandwidth and seed are constructor parameters of
  /// Engine). Taps are only added: observers already on the engine (a
  /// check::VerifiedEngine's verifier) stay attached and see every run.
  void configure(net::Engine& engine) const {
    engine.track_cut(tracked_cut);
    if (fault_plan.active()) engine.set_fault_plan(fault_plan);
    engine.set_transport(transport, reliable_params);
    engine.set_recovery(recovery);
    engine.add_observer(metrics);
    engine.add_observer(trace);
    engine.add_observer(observer);
    engine.add_observer(watchdog);
    engine.set_threads(threads);
  }
};

}  // namespace qcongest::apps
