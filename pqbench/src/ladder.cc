// The layer ladder of the traced run: the first `nops` ops of the seed's
// stream replayed on the benchmark thread through each layer's public
// entry points, one rung per layer, each on state built the way the
// deployment builds it:
//
//   shard    ShardedServer::step / release_staged, inline mode
//   core     Server::put / scan on one unsharded engine
//   net      encode_message / decode_message of the ops and replies
//   persist  Persistence::log_put / flush, one WAL per shard
//   join     Pattern::match / expand of the eager-update chain
//   store    Store::put / scan of the timeline rows
//
// The client ships ops in frames of kWindow, as the closed loop does.
// Join and store run inside core, so the per-op sum that must match the
// inline step time is core + net (+ persist on the durable workload);
// what is left is the shard layer's own time.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "common/base.hh"
#include "join/join.hh"
#include "persist/persist.hh"
#include "pqbench.hh"
#include "store/store.hh"

namespace pqbench {

using pequod::Str;

namespace {

struct Acc {
    std::vector<double> samples;  // per call, in the unit it is reported in
    double total_ns = 0;
    uint64_t count = 0;

    void add(int64_t ns, double scale) {
        samples.push_back(static_cast<double>(ns) / scale);
        total_ns += static_cast<double>(ns);
        ++count;
    }
    double mean_ns() const {
        return count ? total_ns / static_cast<double>(count) : 0;
    }
};

std::vector<Op> first_ops(const WorkloadSpec& spec, const World& world,
                          uint64_t nops) {
    OpStream stream(spec, world);
    std::vector<Op> ops;
    Op op;
    while (ops.size() != nops && stream.next(op))
        ops.push_back(op);
    return ops;
}

}  // namespace

std::map<std::string, double> run_ladder(const WorkloadSpec& spec,
                                         const Scale& scale, uint64_t seed,
                                         uint64_t nops,
                                         const std::string& scratch_dir) {
    std::map<std::string, double> m;
    std::filesystem::create_directories(scratch_dir);
    double n = 0;

    // ---- shard: the deployment's handlers, driven inline ---------------
    Acc step;
    {
        Deployment d(spec, scale, seed, scratch_dir + "/shard-wal", true);
        std::vector<Op> ops = first_ops(spec, d.world(), nops);
        n = static_cast<double>(ops.size());
        pequod::shard::ShardedServer& ss = d.server();
        pequod::shard::ShardClient& client = d.client();
        pequod::shard::Completion c;
        pequod::shard::Frame f;
        for (size_t i = 0; i < ops.size(); i += kWindow) {
            for (size_t j = i; j != std::min(ops.size(), i + kWindow); ++j)
                submit_op(client, ops[j]);
            client.flush();
            bool worked = true;
            while (worked) {
                worked = false;
                for (int s = 0; s != kShards; ++s)
                    while (ss.has_work(s)) {
                        int64_t t0 = now_ns();
                        ss.step(s);
                        ss.release_staged(s, 0);
                        step.add(now_ns() - t0, 1e3);
                        worked = true;
                    }
            }
            while (client.poll_completion(c))
                ;
            while (client.poll_reply(f))
                ;
        }
    }
    m["shard.step_us_p50"] = percentile(step.samples, 50);
    m["shard.step_us_p99"] = percentile(step.samples, 99);

    World world(scale, seed);
    std::vector<Op> ops = first_ops(spec, world, nops);

    // ---- core: one unsharded engine, same data, same ops ---------------
    Acc scan, mat, put;
    uint64_t mat_rows = 0, checks = 0, hits = 0;
    double core_ns = 0;
    // Each check's reply rows, for the net rung.
    std::vector<std::vector<std::pair<std::string, std::string>>> replies(
        ops.size());
    {
        pequod::Server core;
        core.add_join(kTimelineJoin);
        for (uint32_t u = 0; u != scale.users; ++u)
            for (uint32_t fl : world.graph.following(u))
                core.put(edge_key(u, fl), "1");
        for (const auto& sp : world.seed_posts)
            core.put(post_key(sp.first, sp.second),
                     post_value(sp.first, sp.second));
        auto timed_scan = [&](Str lo, Str hi,
                              std::vector<std::pair<std::string,
                                                    std::string>>* out) {
            uint64_t before = core.materialization_count();
            uint64_t rows = 0;
            int64_t t0 = now_ns();
            core.scan(lo, hi, [&](const std::string& k,
                                  const pequod::ValuePtr& v) {
                ++rows;
                if (out)
                    out->emplace_back(k, *v);
            });
            int64_t dt = now_ns() - t0;
            if (core.materialization_count() != before) {
                mat.add(dt, 1e3);
                mat_rows += rows;
                return std::make_pair(dt, false);
            }
            scan.add(dt, 1e3);
            return std::make_pair(dt, true);
        };
        if (spec.prematerialize)
            for (uint32_t u : world.active) {
                std::string lo = timeline_prefix(u);
                timed_scan(lo, pequod::prefix_successor(lo), nullptr);
            }
        for (size_t i = 0; i != ops.size(); ++i) {
            const Op& op = ops[i];
            if (op.type == Op::kCheck) {
                auto r = timed_scan(
                    check_lo(op),
                    pequod::prefix_successor(timeline_prefix(op.user)),
                    &replies[i]);
                core_ns += static_cast<double>(r.first);
                ++checks;
                hits += r.second ? 1 : 0;
            } else {
                std::string k = op.type == Op::kPost
                    ? post_key(op.user, op.ts)
                    : edge_key(op.user, op.other);
                std::string v = op.type == Op::kPost
                    ? post_value(op.user, op.ts)
                    : std::string("1");
                int64_t t0 = now_ns();
                core.put(k, v);
                int64_t dt = now_ns() - t0;
                put.add(dt, 1e3);
                core_ns += static_cast<double>(dt);
            }
        }
    }
    m["core.scan_us_p50"] = percentile(scan.samples, 50);
    m["core.scan_us_p99"] = percentile(scan.samples, 99);
    m["core.materialize_us_p50"] = percentile(mat.samples, 50);
    m["core.rows_per_materialization"] =
        mat.count ? static_cast<double>(mat_rows)
                / static_cast<double>(mat.count)
                  : 0;
    m["core.hit_ratio"] =
        checks ? static_cast<double>(hits) / static_cast<double>(checks) : 0;
    m["core.put_us_p50"] = percentile(put.samples, 50);
    m["core.put_us_p99"] = percentile(put.samples, 99);

    // ---- net: the ops' request frames and their replies -----------------
    double enc_ns = 0, dec_ns = 0, msgs = 0, bytes = 0;
    for (size_t i = 0; i < ops.size(); i += kWindow) {
        std::vector<pequod::net::Message> batch;
        for (size_t j = i; j != std::min(ops.size(), i + kWindow); ++j) {
            const Op& op = ops[j];
            pequod::net::Message req;
            req.seq = j + 1;
            if (op.type == Op::kCheck) {
                req.type = pequod::net::MsgType::kScan;
                req.key = check_lo(op);
                req.value =
                    pequod::prefix_successor(timeline_prefix(op.user));
                pequod::net::Message reply;
                reply.type = pequod::net::MsgType::kScanReply;
                reply.seq = j + 1;
                reply.items = std::move(replies[j]);
                batch.push_back(std::move(req));
                batch.push_back(std::move(reply));
            } else {
                req.type = pequod::net::MsgType::kPut;
                req.key = op.type == Op::kPost ? post_key(op.user, op.ts)
                                               : edge_key(op.user, op.other);
                req.value = op.type == Op::kPost ? post_value(op.user, op.ts)
                                                 : std::string("1");
                batch.push_back(std::move(req));
            }
        }
        pequod::net::Buffer buf;
        int64_t t0 = now_ns();
        for (const pequod::net::Message& msg : batch)
            pequod::net::encode_message(buf, msg);
        int64_t t1 = now_ns();
        pequod::net::Message out;
        size_t decoded = 0;
        while (pequod::net::decode_message(buf, out))
            ++decoded;
        int64_t t2 = now_ns();
        if (decoded != batch.size()) {
            std::fprintf(stderr, "pqbench: net rung decoded %zu of %zu\n",
                         decoded, batch.size());
            std::abort();
        }
        enc_ns += static_cast<double>(t1 - t0);
        dec_ns += static_cast<double>(t2 - t1);
        msgs += static_cast<double>(batch.size());
        bytes += static_cast<double>(buf.size());
    }
    m["net.encode_ns_per_msg"] = msgs ? enc_ns / msgs : 0;
    m["net.decode_ns_per_msg"] = msgs ? dec_ns / msgs : 0;
    m["net.bytes_per_op"] = n ? bytes / n : 0;

    // ---- persist: one WAL per shard, flushed per frame ------------------
    // Measured on every workload (the in-memory ones price a WAL they do
    // not run); only the durable workload's deployment pays it, so only
    // there does it count toward the reconciliation.
    Acc append, flush;
    {
        std::vector<std::unique_ptr<pequod::persist::Persistence>> wals;
        for (int s = 0; s != kShards; ++s) {
            pequod::persist::PersistConfig pc;
            pc.dir = scratch_dir + "/persist-" + std::to_string(s);
            pc.wal_fsync = true;
            pc.wal_flush_interval_ops = std::numeric_limits<size_t>::max();
            pequod::persist::make_dir(pc.dir);
            wals.push_back(
                std::make_unique<pequod::persist::Persistence>(pc));
            wals.back()->recover([](Str, Str) {}, [](Str, Str) {});
        }
        for (size_t i = 0; i < ops.size(); i += kWindow) {
            std::vector<bool> dirty(kShards, false);
            for (size_t j = i; j != std::min(ops.size(), i + kWindow); ++j) {
                const Op& op = ops[j];
                if (op.type == Op::kCheck)
                    continue;
                std::string k = op.type == Op::kPost
                    ? post_key(op.user, op.ts)
                    : edge_key(op.user, op.other);
                std::string v = op.type == Op::kPost
                    ? post_value(op.user, op.ts)
                    : std::string("1");
                int s = pequod::shard::shard_of(k, kShards);
                int64_t t0 = now_ns();
                wals[static_cast<size_t>(s)]->log_put(k, v);
                append.add(now_ns() - t0, 1);
                dirty[static_cast<size_t>(s)] = true;
            }
            for (int s = 0; s != kShards; ++s)
                if (dirty[static_cast<size_t>(s)]) {
                    int64_t t0 = now_ns();
                    wals[static_cast<size_t>(s)]->flush();
                    flush.add(now_ns() - t0, 1e3);
                }
        }
    }
    m["persist.append_ns"] = append.mean_ns();
    m["persist.flush_us_p50"] = percentile(flush.samples, 50);
    m["persist.flush_us_p99"] = percentile(flush.samples, 99);

    // ---- join and store: the eager-update chain, piece by piece ---------
    Acc match, expand, sput, sscan;
    uint64_t matched = 0, scanned_rows = 0;
    {
        Model model(world);
        pequod::Join join;
        join.parse(kTimelineJoin);
        int uslot = join.slots().find("u");
        pequod::Store store;
        store.set_subtable_components("t|", 1);
        std::vector<pequod::Store::Hint> hints(scale.users);
        auto fill = [&](uint32_t u, bool timed) {
            for (const auto& kv : model.timeline(u)) {
                int64_t t0 = now_ns();
                store.put(kv.first, kv.second, &hints[u]);
                if (timed)
                    sput.add(now_ns() - t0, 1);
            }
        };
        if (spec.prematerialize)
            for (uint32_t u : world.active) {
                model.mark_materialized(u);
                fill(u, false);
            }
        pequod::KeyBuf key;
        for (const Op& op : ops) {
            model.apply(op);
            if (op.type == Op::kCheck) {
                if (op.login)
                    fill(op.user, true);
                std::string lo = timeline_prefix(op.user);
                uint64_t rows = 0;
                int64_t t0 = now_ns();
                store.scan(lo, pequod::prefix_successor(lo),
                           [&rows](const std::string&, const pequod::Entry&) {
                               ++rows;
                           });
                sscan.add(now_ns() - t0, 1);
                scanned_rows += rows;
                continue;
            }
            std::string k = op.type == Op::kPost
                ? post_key(op.user, op.ts)
                : edge_key(op.user, op.other);
            pequod::SlotSet bound;
            for (int i = 0; i != join.nsource(); ++i) {
                pequod::SlotSet ss;
                int64_t t0 = now_ns();
                bool ok = join.source(i).match(k, ss);
                match.add(now_ns() - t0, 1);
                if (ok) {
                    ++matched;
                    bound = ss;
                }
            }
            if (op.type == Op::kSubscribe) {
                // A new followee's posts join a materialized timeline.
                if (model.materialized(op.user))
                    for (uint64_t ts : model.posts_of(op.other)) {
                        std::string tk = timeline_key(op.user, ts, op.other);
                        std::string tv = post_value(op.other, ts);
                        int64_t t0 = now_ns();
                        store.put(tk, tv, &hints[op.user]);
                        sput.add(now_ns() - t0, 1);
                    }
                continue;
            }
            // A post reaches every materialized follower's timeline.
            std::string value = post_value(op.user, op.ts);
            for (uint32_t u : model.followers(op.user)) {
                if (!model.materialized(u))
                    continue;
                std::string uk = ukey(u);
                pequod::SlotSet ss = bound;
                ss.bind(uslot, uk);
                int64_t t0 = now_ns();
                join.sink().expand(ss, key);
                expand.add(now_ns() - t0, 1);
                int64_t t1 = now_ns();
                store.put(key.view(), value, &hints[u]);
                sput.add(now_ns() - t1, 1);
            }
        }
        m["store.scan_ns_per_row"] =
            scanned_rows ? sscan.total_ns / static_cast<double>(scanned_rows)
                         : 0;
    }
    m["join.match_ns"] = match.mean_ns();
    m["join.expand_ns"] = expand.mean_ns();
    m["join.match_ratio"] =
        match.count ? static_cast<double>(matched)
                / static_cast<double>(match.count)
                    : 0;
    m["store.put_ns"] = sput.mean_ns();

    // ---- reconciliation --------------------------------------------------
    double net_ns = enc_ns + dec_ns;
    double persist_ns = spec.durable ? append.total_ns + flush.total_ns : 0;
    double ladder_ns = core_ns + net_ns + persist_ns;
    m["shard.self_us_per_op"] = n ? (step.total_ns - core_ns) / n / 1e3 : 0;
    m["bench.ladder_gap_frac"] =
        step.total_ns ? (step.total_ns - ladder_ns) / step.total_ns : 0;
    std::filesystem::remove_all(scratch_dir);
    return m;
}

}  // namespace pqbench
