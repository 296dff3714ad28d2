#include "des/replay.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "common/error.hpp"
#include "core/session_model.hpp"
#include "des/event_queue.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "power/budget.hpp"

namespace nocsched::des {

namespace {

/// Per-phase integer costs, precomputed once per session.  Service
/// times mirror core/session_model's per-pattern terms, ceiled per
/// stage; because ceil(max(a,b)) == max(ceil(a), ceil(b)), the pipeline
/// bottleneck equals the analytical per-pattern cost and the replay
/// never undercuts the plan.
struct PhaseCost {
  std::uint64_t patterns = 0;
  std::uint64_t flits_in = 0;      ///< stimulus flits per pattern
  std::uint64_t flits_out = 0;     ///< response flits per pattern
  std::uint64_t src_service = 0;   ///< source cycles per pattern (0 = line rate)
  std::uint64_t core_service = 0;  ///< wrapper shift: 1 + max(si, so)
  std::uint64_t snk_service = 0;   ///< sink cycles per pattern (0 = line rate)
  std::uint64_t gen_service = 0;   ///< same-CPU generate job (incl. overhead)
  std::uint64_t chk_service = 0;   ///< same-CPU check job
  std::uint64_t drain = 0;         ///< scan-out cycles before a response leaves
  std::uint64_t tail = 0;          ///< non-overlapped scan-out: min(si, so)
};

/// (phase, pattern-within-phase) cursor; each pipeline stage advances
/// its own copy in order.
struct Cursor {
  std::size_t phase = 0;
  std::uint64_t idx = 0;
};

enum class Ev : std::uint8_t {
  kLaunch,        ///< arg = session: planned start reached, try admission
  kGenDone,       ///< arg = session: source finished producing one pattern
  kHeadAdvance,   ///< arg = worm: head crossed a hop, request the next channel
  kRelease,       ///< arg = channel: holder's tail passed, grant next waiter
  kDelivered,     ///< arg = worm: full packet at its destination
  kEmitResponse,  ///< arg = session: a response has left the wrapper, enters the out path
  kSinkDone,      ///< arg = session: sink finished checking one response
  kDispatch,      ///< arg = session: same-CPU server may pick a job
  kSessionClose,  ///< arg = session: wrapper drained, interfaces release
};

struct Payload {
  Ev kind = Ev::kLaunch;
  int arg = 0;
};

enum class CpuJob : std::uint8_t { kNone, kGen, kChk };

struct SessionState {
  // -- static ------------------------------------------------------------
  int module_id = 0;
  int src = -1;  ///< endpoint indices
  int snk = -1;
  std::vector<noc::ChannelId> path_in;
  std::vector<noc::ChannelId> path_out;
  std::vector<PhaseCost> phases;
  std::uint64_t total_patterns = 0;
  std::uint64_t setup = 0;     ///< one-time circuit setup of both paths
  std::uint64_t prologue = 0;  ///< BIST kernel startup before the first pattern
  std::uint64_t teardown = 0;  ///< wrapper drain before the interfaces release
  bool same_cpu = false;       ///< one processor plays both roles
  bool snk_is_cpu = false;
  std::uint64_t planned_start = 0;
  std::uint64_t planned_end = 0;
  double power = 0.0;

  // -- dynamic -----------------------------------------------------------
  bool launched = false;
  bool done = false;
  std::uint64_t observed_start = 0;
  std::uint64_t observed_end = 0;
  std::uint64_t blocked_cycles = 0;
  std::uint64_t flits_in = 0;
  std::uint64_t flits_out = 0;

  Cursor gen_cursor;   ///< next pattern to generate
  Cursor core_cursor;  ///< next pattern the wrapper will shift
  Cursor emit_cursor;  ///< next response to put on the out path
  Cursor sink_cursor;  ///< next response a distinct CPU sink will check
  Cursor chk_cursor;   ///< next response the same-CPU server will check
  std::uint64_t core_free = 0;  ///< wrapper busy-until
  std::uint64_t emit_prev = 0;  ///< last scheduled scan-out (responses leave in order)
  std::uint64_t sink_free = 0;  ///< distinct CPU sink busy-until
  std::uint64_t completed = 0;  ///< responses fully absorbed/checked

  // same-CPU single server
  bool cpu_busy = false;
  CpuJob cpu_job = CpuJob::kNone;
  std::vector<std::uint64_t> chk_ready;  ///< delivery times of responses, from chk_head
  std::size_t chk_head = 0;              ///< first unchecked entry of chk_ready
  bool gen_allowed = false;              ///< previous stimulus worm cleared hop 0
  std::uint64_t gen_ready_time = 0;

  // local-port streaming for zero-hop paths (source or sink on the
  // core's own router): one flit per flow-control cycle, serialized
  std::uint64_t local_in_free = 0;
  std::uint64_t local_out_free = 0;
};

struct Worm {
  int session = -1;
  const std::vector<noc::ChannelId>* path = nullptr;  ///< the session leg it crosses
  bool response = false;
  bool notify_inject_on_delivery = false;  ///< zero-hop/zero-flit stimulus
  std::uint64_t flits = 0;
  int next_hop = 0;  ///< index of the channel being requested/held last
  std::uint64_t request_time = 0;
  int next_waiter = -1;  ///< next worm queued on the channel this one waits for
  std::vector<std::uint64_t> grants;  ///< grant time per acquired channel
};

/// Who holds a channel, and whether its release is queued as an event.
enum class Hold : std::uint8_t {
  kFree,       ///< no holder
  kAcquiring,  ///< the holder's head is still acquiring its path
  kLazy,       ///< release slot (release_time, release_seq) reserved, nothing queued
  kQueued,     ///< a kRelease event sits on the release slot
};

/// A directed channel.  Its release is lazy: when the holder acquires
/// its whole path, the release gets its time and a reserved event slot,
/// but a kRelease event goes on that slot only once a worm waits for
/// the channel.  A request handled at event (now, seq) finds a kLazy
/// channel free iff the slot orders before (now, seq): exactly when a
/// kRelease queued at reservation time would already have popped.
struct ChannelState {
  Hold hold = Hold::kFree;
  int holder = -1;  ///< worm granted the channel last (the holder unless kFree)
  std::uint64_t release_time = 0;
  std::uint64_t release_seq = 0;
  int waiter_head = -1;  ///< worm ids, FIFO through Worm::next_waiter
  int waiter_tail = -1;
  std::uint64_t busy_cycles = 0;
  std::uint64_t packets = 0;
};

std::uint64_t ceil_cycles(double v) {
  return static_cast<std::uint64_t>(std::llround(std::ceil(v)));
}

class Replayer {
 public:
  Replayer(const core::SystemModel& sys, const core::Schedule& schedule,
           const noc::FaultSet& faults, std::span<const int> pretested)
      : sys_(sys), schedule_(schedule),
        pretested_(pretested.begin(), pretested.end()),
        channels_(sys.mesh().channel_count()),
        routing_latency_(sys.params().noc.routing_latency),
        flow_control_latency_(sys.params().noc.flow_control_latency) {
    endpoint_busy_.assign(sys_.endpoints().size(), false);
    build_sessions(faults);
  }

  [[nodiscard]] std::vector<LostSession> take_lost() { return std::move(lost_); }

  SimTrace run() {
    const obs::Span span("replay");
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      queue_.push(sessions_[i].planned_start, {Ev::kLaunch, static_cast<int>(i)});
      pending_.push_back(static_cast<int>(i));
    }
    for (;;) {
      if (held_worm_ >= 0) {
        // A head's next request, held on its reserved slot by start_hold:
        // when nothing queued pops ahead of it, handle it now, exactly
        // where its pop would have run; otherwise queue it on the slot.
        // (No handler issues a sequence after its grant today, so only a
        // strictly earlier time blocks it; the check does not rely on it.)
        const int worm = std::exchange(held_worm_, -1);
        if (held_.before(queue_.earliest())) {
          queue_.mark_popped(held_.time, held_.seq);
          now_ = held_.time;
          now_seq_ = held_.seq;
          ++direct_dispatches_;
          advance_head(worm);
          continue;
        }
        queue_.push_at(held_.time, held_.seq, {Ev::kHeadAdvance, worm});
      }
      if (queue_.empty()) break;
      const auto e = queue_.pop();
      now_ = e.time;
      now_seq_ = e.seq;
      dispatch(e.payload);
    }
    for (const SessionState& s : sessions_) {
      if (s.done) continue;
      diagnose_wait_cycle();
      fail("replay deadlock: module ", s.module_id,
           " never completed — schedule dependencies cannot be met (validate it first)");
    }
    return build_trace();
  }

 private:
  // ----- setup ----------------------------------------------------------

  /// Both fault-aware legs of a surviving session, computed once during
  /// loss detection and consumed when the SessionState is built.
  struct FaultRoutes {
    std::vector<noc::ChannelId> in;
    std::vector<noc::ChannelId> out;
  };

  /// Why `planned` cannot run on the degraded mesh (empty = it can,
  /// and `routes` holds its legs): its module or an endpoint is a dead
  /// processor, or a leg has no surviving route.  The transitive
  /// serving-processor losses are cascaded by build_sessions after
  /// every direct loss is known.
  std::string direct_loss_reason(const core::Session& planned, noc::FaultRouter& router,
                                 FaultRoutes& routes) const {
    const noc::FaultSet& faults = router.faults();
    const auto& endpoints = sys_.endpoints();
    const core::Endpoint& src = endpoints[static_cast<std::size_t>(planned.source_resource)];
    const core::Endpoint& snk = endpoints[static_cast<std::size_t>(planned.sink_resource)];
    if (faults.processor_failed(planned.module_id) &&
        sys_.soc().module(planned.module_id).is_processor) {
      return cat("module ", planned.module_id, " is a failed processor");
    }
    if (src.is_processor() && faults.processor_failed(src.processor_module)) {
      return cat("source processor ", src.processor_module, " failed");
    }
    if (snk.is_processor() && faults.processor_failed(snk.processor_module)) {
      return cat("sink processor ", snk.processor_module, " failed");
    }
    const noc::RouterId at = sys_.router_of(planned.module_id);
    auto in = router.route(src.router, at);
    if (!in) {
      return cat("no surviving route from ", src.name(), " to the core");
    }
    auto out = router.route(at, snk.router);
    if (!out) {
      return cat("no surviving route from the core to ", snk.name());
    }
    routes.in = std::move(*in);
    routes.out = std::move(*out);
    return {};
  }

  void build_sessions(const noc::FaultSet& faults) {
    const auto& endpoints = sys_.endpoints();
    const noc::Characterization& nc = sys_.params().noc;
    const double fc = static_cast<double>(nc.flow_control_latency);

    for (const core::Session& planned : schedule_.sessions) {
      ensure(planned.source_resource >= 0 &&
                 static_cast<std::size_t>(planned.source_resource) < endpoints.size() &&
                 planned.sink_resource >= 0 &&
                 static_cast<std::size_t>(planned.sink_resource) < endpoints.size(),
             "replay: module ", planned.module_id, ": resource index out of range");
      const core::Endpoint& src = endpoints[static_cast<std::size_t>(planned.source_resource)];
      const core::Endpoint& snk = endpoints[static_cast<std::size_t>(planned.sink_resource)];
      ensure(src.can_source() && snk.can_sink(), "replay: module ", planned.module_id,
             ": illegal endpoint roles");
    }

    // Which planned sessions the faults kill: the direct losses, then
    // the cascade — a session whose serving processor lost its own test
    // can never launch (the replay gates on processor_done).
    std::map<int, std::string> lost_reason;  // module id -> why
    std::vector<FaultRoutes> routes(schedule_.sessions.size());  // by plan position
    noc::FaultRouter router(sys_.mesh(), faults);
    for (std::size_t i = 0; i < schedule_.sessions.size(); ++i) {
      const core::Session& planned = schedule_.sessions[i];
      std::string reason = direct_loss_reason(planned, router, routes[i]);
      if (!reason.empty()) lost_reason.emplace(planned.module_id, std::move(reason));
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (const core::Session& planned : schedule_.sessions) {
        if (lost_reason.count(planned.module_id) != 0) continue;
        for (int r : {planned.source_resource, planned.sink_resource}) {
          const core::Endpoint& ep = endpoints[static_cast<std::size_t>(r)];
          if (ep.is_processor() && lost_reason.count(ep.processor_module) != 0) {
            lost_reason.emplace(planned.module_id,
                                cat("serving processor ", ep.processor_module,
                                    " lost its own test"));
            changed = true;
            break;
          }
        }
      }
    }

    for (std::size_t i = 0; i < schedule_.sessions.size(); ++i) {
      const core::Session& planned = schedule_.sessions[i];
      if (const auto it = lost_reason.find(planned.module_id); it != lost_reason.end()) {
        lost_.push_back({planned.module_id, it->second});
        continue;
      }
      const core::Endpoint& src = endpoints[static_cast<std::size_t>(planned.source_resource)];
      const core::Endpoint& snk = endpoints[static_cast<std::size_t>(planned.sink_resource)];

      SessionState s;
      s.module_id = planned.module_id;
      s.src = planned.source_resource;
      s.snk = planned.sink_resource;
      s.planned_start = planned.start;
      s.planned_end = planned.end;
      s.power = planned.power;
      // Present by construction: unroutable sessions were lost above.
      s.path_in = std::move(routes[i].in);
      s.path_out = std::move(routes[i].out);
      s.setup = nc.path_setup_cycles(static_cast<int>(s.path_in.size())) +
                nc.path_setup_cycles(static_cast<int>(s.path_out.size()));
      s.same_cpu = src.is_processor() && snk.is_processor() &&
                   planned.source_resource == planned.sink_resource;
      s.snk_is_cpu = snk.is_processor();

      double prologue = 0.0;
      if (src.is_processor()) {
        prologue = std::max(prologue, sys_.params().rates(src.cpu).setup_cycles);
      }
      if (snk.is_processor()) {
        prologue = std::max(prologue, sys_.params().rates(snk.cpu).setup_cycles);
      }
      s.prologue = ceil_cycles(prologue);

      for (const wrapper::TestPhase& phase : sys_.phases(planned.module_id)) {
        PhaseCost pc;
        pc.patterns = phase.patterns;
        pc.flits_in = nc.flits_for_bits(phase.stimulus_bits);
        pc.flits_out = nc.flits_for_bits(phase.response_bits);
        pc.core_service =
            1 + static_cast<std::uint64_t>(std::max(phase.scan_in_length, phase.scan_out_length));
        pc.drain = phase.scan_out_length;
        pc.tail = std::min(phase.scan_in_length, phase.scan_out_length);
        const double fi = static_cast<double>(pc.flits_in);
        const double fo = static_cast<double>(pc.flits_out);
        if (src.is_processor()) {
          const core::CpuRates& r = sys_.params().rates(src.cpu);
          pc.src_service =
              ceil_cycles(r.per_pattern_overhead + fi * std::max(fc, r.per_stimulus_flit));
          pc.gen_service = pc.src_service;
        }
        if (snk.is_processor()) {
          const core::CpuRates& r = sys_.params().rates(snk.cpu);
          pc.snk_service =
              ceil_cycles(r.per_pattern_overhead + fo * std::max(fc, r.per_response_flit));
          pc.chk_service = ceil_cycles(fo * std::max(fc, r.per_response_flit));
        }
        s.total_patterns += pc.patterns;
        s.teardown += pc.tail;
        s.phases.push_back(pc);
      }
      ensure(s.total_patterns > 0, "replay: module ", planned.module_id, " has no patterns");
      sessions_.push_back(std::move(s));
    }
  }

  // ----- event dispatch -------------------------------------------------

  void dispatch(const Payload& p) {
    switch (p.kind) {
      case Ev::kLaunch:
        try_pending_launches();
        break;
      case Ev::kGenDone:
        on_gen_done(sessions_[static_cast<std::size_t>(p.arg)], p.arg);
        break;
      case Ev::kHeadAdvance:
        advance_head(p.arg);
        break;
      case Ev::kRelease:
        on_release(p.arg);
        break;
      case Ev::kDelivered:
        on_delivered(p.arg);
        break;
      case Ev::kEmitResponse:
        on_emit_response(sessions_[static_cast<std::size_t>(p.arg)], p.arg);
        break;
      case Ev::kSinkDone:
        on_sink_done(sessions_[static_cast<std::size_t>(p.arg)], p.arg);
        break;
      case Ev::kDispatch:
        dispatch_cpu(sessions_[static_cast<std::size_t>(p.arg)], p.arg);
        break;
      case Ev::kSessionClose:
        finish_session(sessions_[static_cast<std::size_t>(p.arg)]);
        break;
    }
  }

  // ----- launch admission -----------------------------------------------

  void try_pending_launches() {
    // Deterministic order: pending_ holds session indices in plan order
    // (sorted by planned start, then module id); launched ones drop out.
    // A session whose planned start is still ahead waits for its own
    // kLaunch event, while later ones in the list can still be eligible.
    std::size_t kept = 0;
    for (const int index : pending_) {
      SessionState& s = sessions_[static_cast<std::size_t>(index)];
      if (s.planned_start > now_ || !try_launch(s, index)) pending_[kept++] = index;
    }
    pending_.resize(kept);
  }

  bool try_launch(SessionState& s, int index) {
    if (endpoint_busy_[static_cast<std::size_t>(s.src)] ||
        endpoint_busy_[static_cast<std::size_t>(s.snk)]) {
      return false;
    }
    for (int r : {s.src, s.snk}) {
      const core::Endpoint& ep = sys_.endpoints()[static_cast<std::size_t>(r)];
      if (ep.is_processor() && !processor_done(ep.processor_module)) return false;
    }
    if (!power::within_budget(active_power_ + s.power, schedule_.power_limit)) return false;

    s.launched = true;
    s.observed_start = now_;
    endpoint_busy_[static_cast<std::size_t>(s.src)] = true;
    endpoint_busy_[static_cast<std::size_t>(s.snk)] = true;
    active_power_ += s.power;

    // Circuit setup of both paths, then the BIST prologue, before the
    // first pattern — the session protocol the analytical model prices.
    const std::uint64_t first_ready = now_ + s.setup + s.prologue;
    if (s.same_cpu) {
      s.gen_allowed = true;
      s.gen_ready_time = first_ready;
      queue_.push(first_ready, {Ev::kDispatch, index});
    } else {
      queue_.push(first_ready + s.phases[0].src_service, {Ev::kGenDone, index});
    }
    return true;
  }

  bool processor_done(int module_id) const {
    // A processor tested to completion in an earlier timeline epoch
    // serves from instant 0 — its test is deliberately absent here.
    for (const int id : pretested_) {
      if (id == module_id) return true;
    }
    for (const SessionState& s : sessions_) {
      if (s.module_id == module_id) return s.done;
    }
    return false;  // processor never tested by this plan — cannot serve
  }

  /// All responses absorbed: drain the wrapper (the non-overlapped
  /// min(si, so) remainder of each phase's final scan-out) before the
  /// session's interfaces are released and its power draw stops.
  void begin_close(SessionState& s, int index) {
    queue_.push(now_ + s.teardown, {Ev::kSessionClose, index});
  }

  void finish_session(SessionState& s) {
    s.done = true;
    s.observed_end = now_;
    endpoint_busy_[static_cast<std::size_t>(s.src)] = false;
    endpoint_busy_[static_cast<std::size_t>(s.snk)] = false;
    active_power_ -= s.power;
    try_pending_launches();
  }

  // ----- source / same-CPU server ---------------------------------------

  bool exhausted(const Cursor& c, const SessionState& s) const {
    return c.phase >= s.phases.size();
  }

  void advance(Cursor& c, const SessionState& s) const {
    if (++c.idx >= s.phases[c.phase].patterns) {
      c.idx = 0;
      ++c.phase;
    }
  }

  /// The source (or the same-CPU server's generate job) finished
  /// producing one pattern: ship it.
  void on_gen_done(SessionState& s, int index) {
    const std::uint64_t flits = s.phases[s.gen_cursor.phase].flits_in;
    advance(s.gen_cursor, s);
    if (s.same_cpu) {
      s.cpu_busy = false;
      s.cpu_job = CpuJob::kNone;
    }
    send_packet(index, /*response=*/false, flits);
    // The injection grant may already have re-dispatched the server onto
    // the next generate; otherwise a queued response check can run now.
    if (s.same_cpu) dispatch_cpu(s, index);
  }

  /// The stimulus packet cleared the first hop (or its local port): the
  /// source may produce the next pattern.
  void on_stimulus_injected(SessionState& s, int index) {
    if (s.same_cpu) {
      s.gen_allowed = true;
      s.gen_ready_time = now_;
      dispatch_cpu(s, index);
      return;
    }
    if (exhausted(s.gen_cursor, s)) return;
    queue_.push(now_ + s.phases[s.gen_cursor.phase].src_service, {Ev::kGenDone, index});
  }

  /// Same-CPU server: pick the job whose input has been waiting longest
  /// (FIFO across generate/check; ties favour draining responses).
  void dispatch_cpu(SessionState& s, int index) {
    if (s.cpu_busy || s.done) return;
    const bool chk_avail = s.chk_head < s.chk_ready.size();
    const bool gen_avail = s.gen_allowed && !exhausted(s.gen_cursor, s);
    if (!chk_avail && !gen_avail) return;
    bool pick_chk = chk_avail;
    if (chk_avail && gen_avail) pick_chk = s.chk_ready[s.chk_head] <= s.gen_ready_time;
    s.cpu_busy = true;
    if (pick_chk) {
      s.cpu_job = CpuJob::kChk;
      if (++s.chk_head == s.chk_ready.size()) {
        s.chk_ready.clear();
        s.chk_head = 0;
      }
      const std::uint64_t service = s.phases[s.chk_cursor.phase].chk_service;
      advance(s.chk_cursor, s);
      queue_.push(now_ + service, {Ev::kSinkDone, index});
    } else {
      s.cpu_job = CpuJob::kGen;
      s.gen_allowed = false;
      const std::uint64_t service = s.phases[s.gen_cursor.phase].gen_service;
      queue_.push(now_ + service, {Ev::kGenDone, index});
    }
  }

  // ----- network --------------------------------------------------------

  /// A reset worm; a recycled one keeps its grants capacity.
  int alloc_worm() {
    if (!free_worms_.empty()) {
      const int id = free_worms_.back();
      free_worms_.pop_back();
      Worm& w = worms_[static_cast<std::size_t>(id)];
      std::vector<std::uint64_t> grants = std::move(w.grants);
      grants.clear();
      w = Worm{};
      w.grants = std::move(grants);
      return id;
    }
    worms_.emplace_back();
    return static_cast<int>(worms_.size()) - 1;
  }

  /// Put one packet on the network (or straight into delivery for
  /// zero-flit payloads and zero-hop routes).
  void send_packet(int session, bool response, std::uint64_t flits) {
    SessionState& s = sessions_[static_cast<std::size_t>(session)];
    const int id = alloc_worm();
    Worm& w = worms_[static_cast<std::size_t>(id)];
    w.session = session;
    w.response = response;
    w.flits = flits;
    w.path = response ? &s.path_out : &s.path_in;
    if (flits == 0) {
      // Nothing crosses the mesh; the "packet" is a bookkeeping token.
      w.notify_inject_on_delivery = !response;
      queue_.push(now_, {Ev::kDelivered, id});
      return;
    }
    const std::uint64_t fc = flow_control_latency_;
    if (w.path->empty()) {
      // Source or sink sits on the core's router: stream through the
      // local port, one flit per flow-control cycle, serialized.
      std::uint64_t& local_free = response ? s.local_out_free : s.local_in_free;
      const std::uint64_t start = std::max(now_, local_free);
      const std::uint64_t delivered = start + flits * fc;
      local_free = delivered;
      w.notify_inject_on_delivery = !response;
      queue_.push(delivered, {Ev::kDelivered, id});
      return;
    }
    w.next_hop = 0;
    w.request_time = now_;
    request_channel(id);
  }

  /// Whether a slot orders before the event being handled, i.e. an
  /// event queued on it would already have popped.
  bool before_now(std::uint64_t time, std::uint64_t seq) const {
    return time < now_ || (time == now_ && seq < now_seq_);
  }

  /// The head crossed a hop: request the next channel.
  void advance_head(int worm_id) {
    worms_[static_cast<std::size_t>(worm_id)].request_time = now_;
    request_channel(worm_id);
  }

  void request_channel(int worm_id) {
    Worm& w = worms_[static_cast<std::size_t>(worm_id)];
    const noc::ChannelId c = (*w.path)[static_cast<std::size_t>(w.next_hop)];
    ChannelState& ch = channels_[static_cast<std::size_t>(c)];
    if (ch.hold == Hold::kFree ||
        (ch.hold == Hold::kLazy && before_now(ch.release_time, ch.release_seq))) {
      start_hold(worm_id);
      return;
    }
    if (ch.hold == Hold::kLazy) {
      queue_.push_at(ch.release_time, ch.release_seq, {Ev::kRelease, c});
      ch.hold = Hold::kQueued;
    }
    w.next_waiter = -1;
    if (ch.waiter_tail < 0) {
      ch.waiter_head = worm_id;
    } else {
      worms_[static_cast<std::size_t>(ch.waiter_tail)].next_waiter = worm_id;
    }
    ch.waiter_tail = worm_id;
  }

  /// Grant the channel at index `next_hop` to the worm at time `now_`.
  /// Before the last hop, the head's next request is held on the slot a
  /// push would have issued it (see run()); a handler grants at most
  /// one channel, so at most one request is held.
  void start_hold(int worm_id) {
    Worm& w = worms_[static_cast<std::size_t>(worm_id)];
    SessionState& s = sessions_[static_cast<std::size_t>(w.session)];
    const auto& path = *w.path;
    const std::uint64_t hop = static_cast<std::uint64_t>(w.next_hop);
    const noc::ChannelId c = path[hop];
    ChannelState& ch = channels_[static_cast<std::size_t>(c)];
    ch.hold = Hold::kAcquiring;
    ch.holder = worm_id;
    ++ch.packets;
    s.blocked_cycles += now_ - w.request_time;
    w.grants.push_back(now_);
    if (hop == 0 && !w.response) {
      const int session_index = w.session;
      on_stimulus_injected(sessions_[static_cast<std::size_t>(session_index)], session_index);
    }
    const std::uint64_t rl = routing_latency_;
    const std::uint64_t fc = flow_control_latency_;
    if (hop + 1 < path.size()) {
      w.next_hop = static_cast<int>(hop + 1);
      NOCSCHED_ASSERT(held_worm_ < 0);
      held_worm_ = worm_id;
      held_ = {now_ + rl + fc, queue_.reserve()};
      return;
    }
    // Whole path acquired: the worm streams home.  Tail-accurate
    // releases with back-propagated stalls: the tail leaves channel j at
    //   T[j] = max(g[j] + rl + F*fc, T[j+1] - fc)
    // (never before "now" — a short packet that was long blocked
    // downstream conservatively keeps its upstream holds until freed).
    // The releases' event slots are reserved in hop order, all at once,
    // and filled from the last hop back; the kRelease is queued now
    // only for a channel that already has a waiter.
    const std::uint64_t H = path.size();
    const std::uint64_t stream = rl + w.flits * fc;
    const std::uint64_t delivered = now_ + stream;
    const std::uint64_t first_seq = queue_.reserve(H);
    std::uint64_t release = delivered;
    for (std::size_t j = H; j-- > 0;) {
      if (j + 1 < H) release = std::max({w.grants[j] + stream, release - fc, now_});
      ChannelState& held = channels_[static_cast<std::size_t>(path[j])];
      held.busy_cycles += release - w.grants[j];
      held.release_time = release;
      held.release_seq = first_seq + j;
      if (held.waiter_head < 0) {
        held.hold = Hold::kLazy;
      } else {
        queue_.push_at(held.release_time, held.release_seq, {Ev::kRelease, path[j]});
        held.hold = Hold::kQueued;
      }
    }
    queue_.push(delivered, {Ev::kDelivered, worm_id});
  }

  /// A queued release pops only for a channel with a waiter: grant the
  /// first one.
  void on_release(int channel) {
    ChannelState& ch = channels_[static_cast<std::size_t>(channel)];
    NOCSCHED_ASSERT(ch.hold == Hold::kQueued && ch.waiter_head >= 0);
    const int next = ch.waiter_head;
    ch.waiter_head = worms_[static_cast<std::size_t>(next)].next_waiter;
    if (ch.waiter_head < 0) ch.waiter_tail = -1;
    start_hold(next);
  }

  // ----- core and sink ---------------------------------------------------

  void on_delivered(int worm_id) {
    const Worm& w = worms_[static_cast<std::size_t>(worm_id)];
    const int session = w.session;
    const bool response = w.response;
    const bool notify_inject = w.notify_inject_on_delivery;
    const std::uint64_t flits = w.flits;
    free_worms_.push_back(worm_id);
    ++packets_;
    SessionState& s = sessions_[static_cast<std::size_t>(session)];
    if (!response) {
      s.flits_in += flits;
      if (notify_inject) on_stimulus_injected(s, session);
      // The wrapper shifts patterns in arrival order, one at a time; a
      // pattern's response has fully scanned out `drain` cycles after
      // its own shift completes (overlapping the next shift-in), and
      // responses leave through one scan-out port strictly in pattern
      // order — the emission time is clamped monotone here, where
      // deliveries arrive in order, so a short-drain phase can never
      // overtake the long-drain phase before it.
      const PhaseCost& pc = s.phases[s.core_cursor.phase];
      advance(s.core_cursor, s);
      s.core_free = std::max(now_, s.core_free) + pc.core_service;
      s.emit_prev = std::max(s.core_free + pc.drain, s.emit_prev);
      queue_.push(s.emit_prev, {Ev::kEmitResponse, session});
      return;
    }
    s.flits_out += flits;
    if (s.same_cpu) {
      s.chk_ready.push_back(now_);
      dispatch_cpu(s, session);
    } else if (s.snk_is_cpu) {
      const std::uint64_t service = s.phases[s.sink_cursor.phase].snk_service;
      advance(s.sink_cursor, s);
      s.sink_free = std::max(now_, s.sink_free) + service;
      queue_.push(s.sink_free, {Ev::kSinkDone, session});
    } else {
      // ATE output port absorbs at line rate: the stream cycles were
      // already paid crossing the mesh.
      ++s.completed;
      if (s.completed == s.total_patterns) begin_close(s, session);
    }
  }

  void on_emit_response(SessionState& s, int index) {
    const PhaseCost& pc = s.phases[s.emit_cursor.phase];
    advance(s.emit_cursor, s);
    send_packet(index, /*response=*/true, pc.flits_out);
  }

  void on_sink_done(SessionState& s, int index) {
    if (s.same_cpu) {
      s.cpu_busy = false;
      s.cpu_job = CpuJob::kNone;
    }
    ++s.completed;
    if (s.completed == s.total_patterns) {
      begin_close(s, index);
      return;
    }
    if (s.same_cpu) dispatch_cpu(s, index);
  }

  // ----- wrap-up ----------------------------------------------------------

  /// Called once the queue has drained with sessions unfinished: throws
  /// naming the wormhole wait-for cycle when worms wait on channels.  A
  /// waiting worm's channel is held by a worm still acquiring its path
  /// (a holder with its whole path would have queued the release), so
  /// that holder waits on its own next channel; following holders from
  /// the lowest waited-on channel id must close a cycle.  Returns when no
  /// worm waits (the unfinished sessions never launched).
  void diagnose_wait_cycle() const {
    const auto waited = std::find_if(channels_.begin(), channels_.end(),
                                     [](const ChannelState& ch) { return ch.waiter_head >= 0; });
    if (waited == channels_.end()) return;
    // Walk channel -> its holder -> the channel that holder waits on,
    // until a holder repeats: the walk from its first visit is the cycle.
    struct Step {
      int worm;
      std::size_t hop;  ///< where the channel waited on lies on the worm's path
    };
    std::vector<Step> walk;
    auto c = static_cast<noc::ChannelId>(waited - channels_.begin());
    for (;;) {
      const ChannelState& ch = channels_[static_cast<std::size_t>(c)];
      if (ch.hold != Hold::kAcquiring) return;
      const auto repeat = std::find_if(walk.begin(), walk.end(),
                                       [&](const Step& st) { return st.worm == ch.holder; });
      if (repeat != walk.end()) {
        walk.erase(walk.begin(), repeat);
        break;
      }
      const Worm& holder = worms_[static_cast<std::size_t>(ch.holder)];
      const auto& path = *holder.path;
      const auto hop = std::find(path.begin(), path.end(), c) - path.begin();
      walk.push_back({ch.holder, static_cast<std::size_t>(hop)});
      c = path[static_cast<std::size_t>(holder.next_hop)];
    }
    // The cycle: each holder's channels from the one waited on up to
    // its head, then the next holder's.
    std::vector<noc::ChannelId> cycle;
    std::vector<int> modules;
    for (const Step& st : walk) {
      const Worm& w = worms_[static_cast<std::size_t>(st.worm)];
      const auto& path = *w.path;
      cycle.insert(cycle.end(), path.begin() + static_cast<std::ptrdiff_t>(st.hop),
                   path.begin() + w.next_hop);
      modules.push_back(sessions_[static_cast<std::size_t>(w.session)].module_id);
    }
    std::rotate(cycle.begin(), std::min_element(cycle.begin(), cycle.end()), cycle.end());
    std::sort(modules.begin(), modules.end());
    modules.erase(std::unique(modules.begin(), modules.end()), modules.end());
    std::string channels;
    for (const noc::ChannelId id : cycle) channels += cat(id, " -> ");
    channels += cat(cycle.front());
    std::string names;
    for (const int id : modules) names += cat(names.empty() ? "" : ", ", id);
    fail("replay deadlock: modules ", names, " hold channels in the wormhole wait-for cycle ",
         channels, " — their routes form a cyclic channel dependency");
  }

  SimTrace build_trace() const {
    SimTrace trace;
    trace.planned_makespan = schedule_.makespan;
    trace.power_limit = schedule_.power_limit;
    for (const SessionState& s : sessions_) {
      SessionTrace t;
      t.module_id = s.module_id;
      t.source_resource = s.src;
      t.sink_resource = s.snk;
      t.planned_start = s.planned_start;
      t.planned_end = s.planned_end;
      t.observed_start = s.observed_start;
      t.observed_end = s.observed_end;
      t.patterns = s.total_patterns;
      t.flits_in = s.flits_in;
      t.flits_out = s.flits_out;
      t.blocked_cycles = s.blocked_cycles;
      t.power = s.power;
      trace.observed_makespan = std::max(trace.observed_makespan, t.observed_end);
      trace.sessions.push_back(t);
    }
    std::sort(trace.sessions.begin(), trace.sessions.end(),
              [](const SessionTrace& a, const SessionTrace& b) {
                if (a.observed_start != b.observed_start) {
                  return a.observed_start < b.observed_start;
                }
                return a.module_id < b.module_id;
              });
    for (std::size_t c = 0; c < channels_.size(); ++c) {
      const ChannelState& ch = channels_[c];
      if (ch.packets == 0) continue;
      trace.channels.push_back(
          {static_cast<noc::ChannelId>(c), ch.busy_cycles, ch.packets});
    }
    trace.events_processed = queue_.pushed();
    trace.packets_delivered = packets_;
    trace.peak_power = observed_peak_power(trace);

    // Flush once, here, where channels are walked in index order — the
    // per-channel histogram fills identically however the event loop
    // interleaved (it is single-threaded, but the invariant is asserted
    // by obs_tests against the metrics-off run).
    obs::MetricsRegistry& reg = obs::registry();
    if (reg.enabled()) {
      static obs::Counter& events = reg.counter("des.events");
      static obs::Counter& packets = reg.counter("des.packets");
      static obs::Counter& direct = reg.counter("des.direct_dispatches");
      static obs::Counter& blocked = reg.counter("des.blocked_cycles");
      static obs::Counter& sessions = reg.counter("des.sessions_replayed");
      static obs::Histogram& busy = reg.histogram(
          "des.channel_busy_cycles", {100, 1000, 10000, 100000, 1000000, 10000000});
      events.add(trace.events_processed);
      packets.add(packets_);
      direct.add(direct_dispatches_);
      sessions.add(trace.sessions.size());
      std::uint64_t blocked_total = 0;
      for (const SessionTrace& t : trace.sessions) blocked_total += t.blocked_cycles;
      blocked.add(blocked_total);
      for (const ChannelUse& c : trace.channels) busy.observe(c.busy_cycles);
    }
    return trace;
  }

  const core::SystemModel& sys_;
  const core::Schedule& schedule_;
  std::vector<int> pretested_;
  std::vector<LostSession> lost_;
  std::vector<SessionState> sessions_;
  std::vector<ChannelState> channels_;
  std::vector<Worm> worms_;
  std::vector<int> free_worms_;
  std::vector<bool> endpoint_busy_;
  std::vector<int> pending_;  ///< unlaunched session indices, plan order
  EventQueue<Payload> queue_;
  const std::uint64_t routing_latency_;       ///< head cycles per hop
  const std::uint64_t flow_control_latency_;  ///< cycles per flit
  int held_worm_ = -1;                   ///< worm whose head request start_hold held, if any
  EventSlot held_;                       ///< that request's slot
  std::uint64_t now_ = 0;      ///< time of the event being handled
  std::uint64_t now_seq_ = 0;  ///< its sequence
  std::uint64_t packets_ = 0;
  std::uint64_t direct_dispatches_ = 0;  ///< held head requests handled without queuing
  double active_power_ = 0.0;
};

}  // namespace

SimTrace replay(const core::SystemModel& sys, const core::Schedule& schedule) {
  return replay_degraded(sys, schedule, {}).trace;
}

DegradedReplay replay_degraded(const core::SystemModel& sys, const core::Schedule& schedule,
                               const noc::FaultSet& faults, std::span<const int> pretested) {
  Replayer replayer(sys, schedule, faults, pretested);
  DegradedReplay result;
  result.trace = replayer.run();
  result.lost = replayer.take_lost();
  return result;
}

}  // namespace nocsched::des
