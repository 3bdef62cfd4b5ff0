// The deployment under test and its drivers: setup, the closed and open
// loops run by the one client thread, and the oracle and recovery gates.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <limits>

#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include "common/base.hh"
#include "pqbench.hh"

namespace pqbench {

using pequod::shard::Completion;
using pequod::shard::Frame;
using pequod::shard::ShardedServer;

const char* const kSpanNames[] = {"op",         "submit_put",
                                  "submit_scan", "flush",
                                  "poll_completion", "poll_reply"};

int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

// A drain that makes no progress for this long is a pipeline bug, not a
// slow run: dump the shards' state and fail instead of hanging.
constexpr int64_t kStallNs = 30'000'000'000;
// Closed-loop warm-up before the first measured window.
constexpr double kWarmupS = 0.3;

// This process's thread ids.
std::vector<pid_t> thread_ids() {
    std::vector<pid_t> ids;
    if (DIR* d = opendir("/proc/self/task")) {
        while (dirent* e = readdir(d))
            if (e->d_name[0] != '.')
                ids.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
        closedir(d);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

void pin(pid_t tid, int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(tid, sizeof set, &set);
}

// Start the workers and give each busy thread a core of its own: the
// client (this thread) and the two workers take the last three CPUs.
// Left to the scheduler, the three spinning threads' placement differs
// between deployments, and so does every number measured on them.
void start_pinned(ShardedServer& ss) {
    std::vector<pid_t> before = thread_ids();
    ss.start();
    std::vector<pid_t> after = thread_ids();
    std::vector<pid_t> workers;
    std::set_difference(after.begin(), after.end(), before.begin(),
                        before.end(), std::back_inserter(workers));
    long ncpu = sysconf(_SC_NPROCESSORS_ONLN);
    if (ncpu < 1 + static_cast<long>(workers.size()))
        return;
    int cpu = static_cast<int>(ncpu) - 1;
    for (pid_t tid : workers)
        pin(tid, cpu--);
    pin(0, cpu);
}

}  // namespace

std::string check_lo(const Op& op) {
    std::string lo = timeline_prefix(op.user);
    if (op.ts != 0)
        lo += pequod::pad_number(op.ts, 10);
    return lo;
}

uint64_t submit_op(pequod::shard::ShardClient& client, const Op& op) {
    if (op.type == Op::kCheck)
        return client.submit_scan(
            check_lo(op),
            pequod::prefix_successor(timeline_prefix(op.user)));
    if (op.type == Op::kPost)
        return client.submit_put(post_key(op.user, op.ts),
                                 post_value(op.user, op.ts));
    return client.submit_put(edge_key(op.user, op.other), "1");
}

Deployment::Deployment(const WorkloadSpec& spec, const Scale& scale,
                       uint64_t seed, const std::string& wal_dir,
                       bool inline_mode)
    : spec_(spec), inline_(inline_mode) {
    int64_t t0 = now_ns();
    world_ = std::make_unique<World>(scale, seed);
    config_.shards = kShards;
    config_.joins = kTimelineJoin;
    if (spec.durable) {
        // Group commit per applied frame is the shard tier's policy;
        // the op-count trigger is pushed out of reach so it is the
        // only one, and the bulk load is committed once, by start().
        config_.persist.dir = wal_dir;
        config_.persist.wal_fsync = true;
        config_.persist.wal_flush_interval_ops =
            std::numeric_limits<size_t>::max();
    }
    ss_ = std::make_unique<ShardedServer>(config_);
    client_ = &ss_->make_client();
    const pequod::apps::SocialGraph& g = world_->graph;
    for (uint32_t u = 0; u != scale.users; ++u)
        for (uint32_t f : g.following(u))
            ss_->load(edge_key(u, f), "1");
    for (const auto& sp : world_->seed_posts)
        ss_->load(post_key(sp.first, sp.second),
                  post_value(sp.first, sp.second));
    loaded_ = g.edge_count() + world_->seed_posts.size();
    // start() also makes the bulk load durable; inline deployments start
    // and stop once for the same commit.
    // start() also makes the bulk load durable; inline deployments start
    // and stop once for the same commit.
    if (inline_) {
        ss_->start();
        ss_->stop();
    } else {
        start_pinned(*ss_);
    }
    if (spec.prematerialize)
        prematerialize();
    setup_s_ = static_cast<double>(now_ns() - t0) / 1e9;

    model_ = std::make_unique<Model>(*world_);
    if (spec.prematerialize)
        for (uint32_t u : world_->active)
            model_->mark_materialized(u);
    stream_ = std::make_unique<OpStream>(spec, *world_);
}

Deployment::~Deployment() {
    std::string dir = config_.persist.dir;
    ss_.reset();
    if (!dir.empty())
        std::filesystem::remove_all(dir);
}

void Deployment::step_inline() {
    bool worked = true;
    while (worked) {
        worked = false;
        for (int s = 0; s != kShards; ++s)
            while (ss_->has_work(s)) {
                ss_->step(s);
                ss_->release_staged(s, 0);
                worked = true;
            }
    }
}

// Full checks of every active user, 64 outstanding, replies discarded:
// the paper's logged-in steady state (§5.5) before measurement starts.
void Deployment::prematerialize() {
    const std::vector<uint32_t>& users = world_->active;
    size_t next = 0, done = 0;
    Frame f;
    while (done != users.size()) {
        while (next != users.size() && next - done < 64) {
            std::string lo = timeline_prefix(users[next++]);
            client_->submit_scan(lo, pequod::prefix_successor(lo));
        }
        client_->flush();
        if (inline_)
            step_inline();
        while (client_->poll_reply(f)) {
            pequod::net::Message m;
            while (pequod::net::decode_message(f.buf, m))
                ++done;
        }
    }
}

void Deployment::stop() {
    if (!inline_)
        ss_->stop();
}

uint64_t Deployment::submit(const Op& op, int64_t due_ns,
                            std::vector<Span>* spans) {
    uint32_t root = 0;
    int64_t t0 = 0;
    if (spans) {
        t0 = now_ns();
        spans->push_back(Span{kSpanOp, 0, 0, t0, 0});
        root = static_cast<uint32_t>(spans->size());
    }
    uint64_t ticket = submit_op(*client_, op);
    if (spans) {
        (*spans)[root - 1].op = ticket;
        spans->push_back(Span{op.type == Op::kCheck ? kSpanSubmitScan
                                                    : kSpanSubmitPut,
                              root, ticket, t0, now_ns()});
    }
    if (ops_.empty())
        ticket_base_ = ticket;
    if (ticket != ticket_base_ + ops_.size()) {
        std::fprintf(stderr, "pqbench: ticket %llu out of sequence\n",
                     static_cast<unsigned long long>(ticket));
        std::abort();
    }
    ops_.push_back(Pending{op, due_ns, root, false});
    model_->apply(op);
    ++outstanding_;
    ++attempted_;
    ++by_type_[op.type];
    if (op.login)
        ++logins_;
    return ticket;
}

void Deployment::finish(uint64_t ticket, int64_t now, OpenLoopResult* lat,
                        int64_t t0, double window_ns,
                        std::vector<Span>* spans) {
    if (ticket < ticket_base_ || ticket - ticket_base_ >= ops_.size()
        || ops_[ticket - ticket_base_].done) {
        ++bad_reply_rows_;  // a completion nobody is waiting for
        return;
    }
    Pending& p = ops_[ticket - ticket_base_];
    p.done = true;
    --outstanding_;
    ++completed_;
    if (spans && p.span)
        (*spans)[p.span - 1].end_ns = now;
    if (!lat)
        return;
    double us = static_cast<double>(now - p.due_ns) / 1e3;
    size_t nw = lat->check_windows.size();
    size_t w = static_cast<size_t>(
        std::max(0.0, static_cast<double>(p.due_ns - t0) / window_ns));
    w = std::min(w, nw - 1);
    if (p.op.type == Op::kCheck) {
        lat->check_us.push_back(us);
        lat->check_windows[w].push_back(us);
    } else {
        lat->update_us.push_back(us);
        lat->update_windows[w].push_back(us);
    }
}

void Deployment::poll(OpenLoopResult* lat, int64_t t0, double window_ns,
                      std::vector<Span>* spans) {
    Completion c;
    for (;;) {
        int64_t a = now_ns();
        if (!client_->poll_completion(c))
            break;
        int64_t b = now_ns();
        if (spans && c.ticket >= ticket_base_
            && c.ticket - ticket_base_ < ops_.size())
            spans->push_back(Span{kSpanPollCompletion,
                                  ops_[c.ticket - ticket_base_].span,
                                  c.ticket, a, b});
        finish(c.ticket, b, lat, t0, window_ns, spans);
    }
    Frame f;
    for (;;) {
        int64_t a = now_ns();
        if (!client_->poll_reply(f))
            break;
        pequod::net::Message m;
        while (pequod::net::decode_message(f.buf, m)) {
            int64_t b = now_ns();
            if (m.seq < ticket_base_ || m.seq - ticket_base_ >= ops_.size()) {
                ++bad_reply_rows_;
                continue;
            }
            const Pending& p = ops_[m.seq - ticket_base_];
            if (spans)
                spans->push_back(Span{kSpanPollReply, p.span, m.seq, a, b});
            // Every row must lie in the scanned range; membership in the
            // recomputed join is checked at quiescence.
            std::string lo = check_lo(p.op);
            std::string hi =
                pequod::prefix_successor(timeline_prefix(p.op.user));
            for (const auto& kv : m.items) {
                if (kv.first < lo || kv.first >= hi)
                    ++bad_reply_rows_;
                reply_rows_.emplace_back(p.op.user,
                                         hash_row(kv.first, kv.second));
            }
            finish(m.seq, b, lat, t0, window_ns, spans);
        }
    }
}

void Deployment::drain(OpenLoopResult* lat, int64_t t0, double window_ns) {
    client_->flush();
    int64_t last = now_ns();
    uint64_t seen = completed_;
    while (outstanding_ != 0) {
        if (inline_)
            step_inline();
        poll(lat, t0, window_ns, nullptr);
        int64_t now = now_ns();
        if (completed_ != seen) {
            seen = completed_;
            last = now;
        } else if (now - last > kStallNs) {
            std::fprintf(stderr,
                         "pqbench: drain stalled with %llu ops outstanding\n"
                         "%s",
                         static_cast<unsigned long long>(outstanding_),
                         ss_->debug_state().c_str());
            std::abort();
        }
    }
}

std::vector<double> Deployment::closed_loop(double seconds, double window_s,
                                            std::vector<Span>* spans) {
    size_t nwin = std::max<size_t>(
        1, static_cast<size_t>(std::llround(seconds / window_s)));
    std::vector<uint64_t> counts(nwin, 0);
    int64_t start = now_ns() + static_cast<int64_t>(kWarmupS * 1e9);
    double window_ns = window_s * 1e9;
    int64_t end = start + static_cast<int64_t>(window_ns * nwin);
    Op op;
    for (;;) {
        int64_t now = now_ns();
        if (now >= end)
            break;
        while (outstanding_ < kWindow) {
            if (!stream_->next(op)) {
                std::fprintf(stderr, "pqbench: %s op stream exhausted\n",
                             spec_.name);
                std::abort();
            }
            submit(op, now, spans);
        }
        if (client_->pending_ops() != 0) {
            int64_t a = now_ns();
            client_->flush();
            if (spans)
                spans->push_back(Span{kSpanFlush, 0, 0, a, now_ns()});
        }
        uint64_t before = completed_;
        poll(nullptr, 0, 1, spans);
        if (completed_ != before && now >= start)
            counts[std::min(nwin - 1, static_cast<size_t>(
                                          static_cast<double>(now - start)
                                          / window_ns))] +=
                completed_ - before;
    }
    drain(nullptr, 0, 1);
    std::vector<double> rates;
    for (uint64_t c : counts)
        rates.push_back(static_cast<double>(c) / window_s);
    return rates;
}

OpenLoopResult Deployment::open_loop(double rate, double seconds,
                                     int windows) {
    OpenLoopResult r;
    r.rate = rate;
    r.check_windows.resize(static_cast<size_t>(windows));
    r.update_windows.resize(static_cast<size_t>(windows));
    // Arrival times are seeded too, so a seed fixes the schedule.
    Rng arrivals(world_->seed * 0x94d049bb133111ebULL + 23);
    int64_t t0 = now_ns() + 1'000'000;
    double window_ns = seconds * 1e9 / windows;
    double end = static_cast<double>(t0) + seconds * 1e9;
    double due = static_cast<double>(t0);
    Op op;
    for (;;) {
        int64_t now = now_ns();
        while (due <= static_cast<double>(now) && due < end) {
            if (!stream_->next(op)) {
                std::fprintf(stderr, "pqbench: %s op stream exhausted\n",
                             spec_.name);
                std::abort();
            }
            submit(op, static_cast<int64_t>(due), nullptr);
            client_->flush();
            r.lag_us.push_back((static_cast<double>(now) - due) / 1e3);
            due += -std::log(1.0 - arrivals.uniform()) * 1e9 / rate;
        }
        if (due >= end)
            break;
        poll(&r, t0, window_ns, nullptr);
    }
    r.backlog_at_end = outstanding_;
    drain(&r, t0, window_ns);
    return r;
}

uint64_t Deployment::oracle_failures() {
    uint64_t fails = bad_reply_rows_;
    std::sort(reply_rows_.begin(), reply_rows_.end());
    std::vector<uint32_t> users = model_->materialized_users();
    std::sort(users.begin(), users.end());
    size_t ri = 0;
    int reported = 0;
    for (uint32_t u : users) {
        std::vector<uint64_t> want = model_->timeline_hashes(u);
        std::vector<uint64_t> got;
        std::string lo = timeline_prefix(u);
        int home = pequod::shard::shard_of(lo, kShards);
        ss_->server(home).scan_stored(
            lo, pequod::prefix_successor(lo),
            [&got](const std::string& k, const pequod::Entry& e) {
                got.push_back(hash_row(k, e.value()));
            });
        std::sort(got.begin(), got.end());
        if (got != want) {
            ++fails;
            if (reported++ < 3)
                std::fprintf(stderr,
                             "pqbench: oracle: timeline of user %u has %zu "
                             "rows, the recomputed join %zu\n",
                             u, got.size(), want.size());
        }
        // Reply rows of this user must all be rows of the join.
        while (ri != reply_rows_.size() && reply_rows_[ri].first < u) {
            ++fails;  // a reply for a timeline that was never materialized
            ++ri;
        }
        for (; ri != reply_rows_.size() && reply_rows_[ri].first == u; ++ri)
            if (!std::binary_search(want.begin(), want.end(),
                                    reply_rows_[ri].second)) {
                ++fails;
                if (reported++ < 3)
                    std::fprintf(stderr,
                                 "pqbench: oracle: user %u was served a "
                                 "row outside the join\n",
                                 u);
            }
    }
    fails += reply_rows_.size() - ri;
    return fails;
}

uint64_t Deployment::recovery_failures() {
    std::vector<std::pair<std::string, std::string>> acked;
    for (const Pending& p : ops_) {
        if (!p.done || p.op.type == Op::kCheck)
            continue;
        if (p.op.type == Op::kPost)
            acked.emplace_back(post_key(p.op.user, p.op.ts),
                               post_value(p.op.user, p.op.ts));
        else
            acked.emplace_back(edge_key(p.op.user, p.op.other), "1");
    }
    ss_.reset();  // orderly shutdown
    ShardedServer reopened(config_);
    uint64_t fails = 0;
    for (int s = 0; s != kShards; ++s) {
        const pequod::persist::RecoverResult* rr = reopened.last_recovery(s);
        if (!rr || !rr->wal_tail_clean)
            ++fails;
    }
    for (const auto& kv : acked) {
        int s = pequod::shard::shard_of(kv.first, kShards);
        const pequod::Entry* e = reopened.server(s).get_ptr(kv.first);
        if (!e || e->value() != kv.second)
            ++fails;
    }
    if (fails)
        std::fprintf(stderr,
                     "pqbench: recovery: %llu of %zu acknowledged puts "
                     "missing\n",
                     static_cast<unsigned long long>(fails), acked.size());
    return fails;
}

double Deployment::bytes_per_base_byte() {
    double total = 0;
    for (int s = 0; s != kShards; ++s)
        total += static_cast<double>(ss_->server(s).memory_stats().total());
    return total / static_cast<double>(model_->base_bytes());
}

}  // namespace pqbench
