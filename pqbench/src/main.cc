// pqbench driver: one run of one workload, printed as one JSON document.
//
//   pqbench --workload twip-warm --seed 1 --seconds 8 --trace 0
//           --scratch .bench_build/pqbench/scratch
//
// --trace 0 measures the end-to-end metrics on three fresh deployments
// (setup_s is the median of the three setups); each runs a closed loop,
// the open loop at the workload's fixed rate and two SLO trials.
// --trace 1 is the traced run: untraced and traced closed loops back to
// back on one deployment (their ratio is the tracing overhead), the
// deployment's counters at quiescence, and the layer ladder (ladder.cc).
// Every deployment passes the oracle gate before its numbers count;
// durable workloads also pass the recovery check. The exit code is
// nonzero when any gate fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "pqbench.hh"

using namespace pqbench;

namespace {

struct Metric {
    std::string name;
    const char* unit;
    std::vector<double> samples;  // the run's repetitions
    double value;                 // what the run reports
    bool gated;  // in BENCHMARK.json; else reported beside it only
};

std::string json_number(double v) {
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

struct Report {
    std::vector<Metric> metrics;
    std::vector<std::string> notes;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool valid = true;

    // The value is the median of the run's repetitions.
    void add(const std::string& name, const char* unit,
             const std::vector<double>& samples, bool gated = true) {
        metrics.push_back(Metric{name, unit, samples,
                                 summarize(samples).median, gated});
    }
};

// Measurement windows: throughput per 0.1 s, latency percentiles per
// 0.1 s of due times. A stall inside the engine moves one or two
// windows, not the median over them.
constexpr double kWindowS = 0.1;
// Ops the layer ladder replays.
constexpr uint64_t kLadderOps = 20000;

// Every per-layer metric of the traced run, with its unit.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"shard.step_us_p50", "us"},
    {"shard.step_us_p99", "us"},
    {"shard.self_us_per_op", "us"},
    {"shard.msgs_per_frame", "count"},
    {"shard.subscribes_per_login", "count"},
    {"shard.backfill_items_per_login", "count"},
    {"shard.notify_items_per_frame", "count"},
    {"net.encode_ns_per_msg", "ns"},
    {"net.decode_ns_per_msg", "ns"},
    {"net.bytes_per_op", "B"},
    {"core.scan_us_p50", "us"},
    {"core.scan_us_p99", "us"},
    {"core.materialize_us_p50", "us"},
    {"core.rows_per_materialization", "count"},
    {"core.hit_ratio", "fraction"},
    {"core.put_us_p50", "us"},
    {"core.put_us_p99", "us"},
    {"core.eager_per_post", "count"},
    {"core.updaters_per_timeline", "count"},
    {"join.match_ns", "ns"},
    {"join.expand_ns", "ns"},
    {"join.match_ratio", "fraction"},
    {"store.put_ns", "ns"},
    {"store.scan_ns_per_row", "ns"},
    {"store.bytes_per_value_byte", "B/B"},
    {"persist.append_ns", "ns"},
    {"persist.flush_us_p50", "us"},
    {"persist.flush_us_p99", "us"},
    {"persist.ops_per_flush", "count"},
    {"persist.wal_bytes_per_user_byte", "B/B"},
    {"persist.fsyncs_per_op", "count"},
    {"bench.gen_lag_us_p99", "us"},
    {"bench.trace_overhead_frac", "fraction"},
    {"bench.ladder_gap_frac", "fraction"},
};

// The p-th percentile of each window, consecutive windows merged until
// each group has at least ten samples beyond the percentile. The metric
// is the median over groups: a growth stall inside the engine (README,
// "Findings") lands in one window and moves one group's percentile,
// not the run's; the pooled percentiles and the maximum are reported
// beside it in the run's notes.
std::vector<double> window_percentiles(
    const std::vector<std::vector<double>>& windows, double p) {
    size_t need = static_cast<size_t>(std::ceil(10.0 / (1.0 - p / 100.0)));
    std::vector<double> out, group;
    for (size_t i = 0; i != windows.size(); ++i) {
        group.insert(group.end(), windows[i].begin(), windows[i].end());
        bool last = i + 1 == windows.size();
        if (group.size() >= need || (last && out.empty() && !group.empty())) {
            out.push_back(percentile(group, p));
            group.clear();
        }
    }
    return out;
}

double robust_p99(const std::vector<std::vector<double>>& windows) {
    return summarize(window_percentiles(windows, 99)).median;
}

bool generator_behind(const OpenLoopResult& res) {
    return percentile(res.lag_us, 90) > kGenLagLimitUs;
}

// The oracle gate and, for durable workloads, the recovery check.
void gate(Deployment& d, Report& r, bool recovery) {
    d.stop();
    uint64_t bad = d.oracle_failures();
    if (recovery)
        bad += d.recovery_failures();
    r.attempted += d.attempted();
    r.failed += bad;
}

bool slo_pass(const OpenLoopResult& res, std::string& why) {
    double p99 = robust_p99(res.check_windows);
    double lag = percentile(res.lag_us, 90);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "rate %.0f: check_p99 %.1f us, backlog %llu, lag_p90 "
                  "%.1f us",
                  res.rate, p99,
                  static_cast<unsigned long long>(res.backlog_at_end), lag);
    why = buf;
    // A backlog above a millisecond of arrivals (or the closed-loop
    // window, whichever is larger) is growing, not transient.
    double allowed = std::max<double>(kWindow, res.rate * 1e-3);
    return !res.check_us.empty() && p99 <= kSloCheckP99Us
        && static_cast<double>(res.backlog_at_end) <= allowed
        && !generator_behind(res);
}

// Appends `from`'s latency samples and windows to `to`.
void merge(OpenLoopResult& to, const OpenLoopResult& from) {
    auto cat = [](auto& a, const auto& b) {
        a.insert(a.end(), b.begin(), b.end());
    };
    cat(to.check_us, from.check_us);
    cat(to.update_us, from.update_us);
    cat(to.lag_us, from.lag_us);
    cat(to.check_windows, from.check_windows);
    cat(to.update_windows, from.update_windows);
}

// Three fresh deployments, one after another. Each measures a share of
// every metric: a closed loop, the open loop at the fixed rate, and two
// trials of the SLO bisection. Spreading each metric over three
// deployments and the whole run averages out slow changes in the host
// and each deployment's thread placement, which otherwise move a run's
// numbers together by 20% or more.
void run_untraced(const WorkloadSpec& spec, const Scale& scale,
                  uint64_t seed, double seconds, const std::string& scratch,
                  Report& r) {
    const int deployments = 3, trials_each = 2;
    double closed_s = 0.3 * seconds / deployments;
    double open_s = 0.4 * seconds / deployments;
    double trial_s = 0.3 * seconds / (deployments * trials_each);
    std::vector<double> setup, bpb, tput;
    OpenLoopResult lat;
    double lo = 0, hi = 0, slo = 0;
    for (int k = 0; k != deployments; ++k) {
        Deployment d(spec, scale, seed,
                     scratch + "/wal-" + std::to_string(k));
        setup.push_back(d.setup_seconds());
        std::vector<double> w = d.closed_loop(closed_s, kWindowS);
        tput.insert(tput.end(), w.begin(), w.end());
        OpenLoopResult part = d.open_loop(
            spec.fixed_rate, open_s,
            std::max(1, static_cast<int>(open_s / kWindowS)));
        r.notes.push_back(
            "deployment " + std::to_string(k) + ": setup "
            + json_number(d.setup_seconds()) + " s, closed loop "
            + json_number(summarize(w).median) + " ops/s, check p50 "
            + json_number(
                summarize(window_percentiles(part.check_windows, 50)).median)
            + " us");
        merge(lat, part);
        // The SLO: bisection over [0.25, 1.25] x the closed-loop
        // throughput measured in the first deployment.
        if (k == 0) {
            double base = summarize(tput).median;
            lo = 0.25 * base;
            hi = 1.25 * base;
        }
        for (int i = 0; i != trials_each; ++i) {
            double rate = (lo + hi) / 2;
            std::string why;
            bool ok = slo_pass(
                d.open_loop(rate, trial_s,
                            std::max(1, static_cast<int>(trial_s / kWindowS))),
                why);
            r.notes.push_back("slo trial " + why + (ok ? " pass" : " fail"));
            if (ok)
                slo = lo = rate;
            else
                hi = rate;
        }
        d.stop();
        bpb.push_back(d.bytes_per_base_byte());
        gate(d, r, spec.durable && k + 1 == deployments);
    }
    if (generator_behind(lat)) {
        r.valid = false;
        r.notes.push_back("latency run invalid: generator lag p90 "
                          + json_number(percentile(lat.lag_us, 90)) + " us");
    }
    auto pooled = [](const char* what, const std::vector<double>& v) {
        return std::string(what) + " samples " + std::to_string(v.size())
            + ", pooled p50 " + json_number(percentile(v, 50)) + " us, p99 "
            + json_number(percentile(v, 99)) + " us, max "
            + json_number(percentile(v, 100)) + " us";
    };
    r.notes.push_back(pooled("generator lag", lat.lag_us));
    r.notes.push_back(pooled("check", lat.check_us));
    r.notes.push_back(pooled("update", lat.update_us));

    r.add("throughput_ops_s", "ops/s", tput);
    r.add("bytes_per_base_byte", "B/B", bpb);
    r.add("setup_s", "s", setup);
    // Measured and reported beside the gated metrics, but too unsteady
    // between runs here to gate (README.md, "What is gated").
    // slo_qps is 0 when no trial met the SLO.
    r.add("slo_qps", "ops/s", {slo}, false);
    for (double p : {50.0, 90.0, 99.0}) {
        std::string suffix = "_p" + std::to_string(static_cast<int>(p)) + "_us";
        r.add("check" + suffix, "us", window_percentiles(lat.check_windows, p),
              false);
        r.add("update" + suffix, "us",
              window_percentiles(lat.update_windows, p), false);
    }
}

void write_spans(const std::vector<Span>& spans, const std::string& path) {
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return;
    std::fprintf(f, "id\tname\tstart_ns\tend_ns\tparent\top\n");
    for (size_t i = 0; i != spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%u\t%llu\n", i + 1,
                     kSpanNames[s.name], static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns), s.parent,
                     static_cast<unsigned long long>(s.op));
    }
    std::fclose(f);
}

double ratio(double a, double b) {
    return b != 0 ? a / b : 0;
}

void run_traced(const WorkloadSpec& spec, const Scale& scale, uint64_t seed,
                double seconds, const std::string& scratch, Report& r) {
    std::vector<Span> spans;
    double untraced, traced, lag99;
    std::map<std::string, double> m;
    {
        Deployment d(spec, scale, seed, scratch + "/wal-t");
        untraced = summarize(d.closed_loop(0.2 * seconds, kWindowS)).median;
        spans.reserve(static_cast<size_t>(untraced * 0.2 * seconds * 4));
        traced =
            summarize(d.closed_loop(0.2 * seconds, kWindowS, &spans)).median;
        double l_s = 0.1 * seconds;
        OpenLoopResult lat = d.open_loop(
            spec.fixed_rate, l_s, std::max(1, static_cast<int>(l_s / kWindowS)));
        lag99 = percentile(lat.lag_us, 99);
        d.stop();

        // Counters from public accessors, at quiescence, over the
        // deployment's lifetime (setup's pre-materialization included).
        pequod::shard::ShardStats t;
        uint64_t eager = 0, updaters = 0, mem = 0, value_bytes = 0;
        uint64_t wal_ops = 0, wal_flushes = 0, wal_fsyncs = 0, wal_bytes = 0;
        for (int s = 0; s != kShards; ++s) {
            const pequod::shard::ShardStats& st = d.server().stats(s);
            t.frames += st.frames;
            t.messages += st.messages;
            t.subscribes_sent += st.subscribes_sent;
            t.backfill_items += st.backfill_items;
            t.notify_frames_sent += st.notify_frames_sent;
            t.notify_items_sent += st.notify_items_sent;
            pequod::Server& sv = d.server().server(s);
            eager += sv.eager_update_count();
            updaters += sv.updater_count();
            pequod::MemoryStats ms = sv.memory_stats();
            mem += ms.total();
            value_bytes += ms.value_bytes;
            if (const pequod::persist::WalStats* ws = d.server().wal_stats(s)) {
                wal_ops += ws->appended_ops;
                wal_flushes += ws->flushes;
                wal_fsyncs += ws->fsyncs;
                wal_bytes += ws->bytes_written;
            }
        }
        double logins = static_cast<double>(
            d.logins() + (spec.prematerialize ? d.world().active.size() : 0));
        double materialized =
            static_cast<double>(d.model().materialized_users().size());
        m["shard.msgs_per_frame"] = ratio(t.messages, t.frames);
        m["shard.subscribes_per_login"] = ratio(t.subscribes_sent, logins);
        m["shard.backfill_items_per_login"] = ratio(t.backfill_items, logins);
        m["shard.notify_items_per_frame"] =
            ratio(t.notify_items_sent, t.notify_frames_sent);
        m["core.eager_per_post"] =
            ratio(eager, d.issued_of(Op::kPost));
        m["core.updaters_per_timeline"] = ratio(updaters, materialized);
        m["store.bytes_per_value_byte"] = ratio(mem, value_bytes);
        // The WAL's deployment counters, zero where the WAL is off. The
        // bulk load is one flush (and fsync) per shard, made by start();
        // the per-op ratios leave it out. The WAL journals every base
        // byte, loaded or written.
        if (wal_flushes > kShards) {
            double ops = static_cast<double>(wal_ops - d.loaded());
            m["persist.ops_per_flush"] = ratio(ops, wal_flushes - kShards);
            m["persist.fsyncs_per_op"] = ratio(wal_fsyncs - kShards, ops);
        } else {
            m["persist.ops_per_flush"] = m["persist.fsyncs_per_op"] = 0;
        }
        m["persist.wal_bytes_per_user_byte"] =
            ratio(wal_bytes, d.model().base_bytes());
        gate(d, r, false);
        write_spans(spans, scratch + "/../spans-" + spec.name + "-"
                               + std::to_string(seed) + ".tsv");
    }
    r.notes.push_back("traced spans: " + std::to_string(spans.size()));
    spans.clear();
    spans.shrink_to_fit();

    std::map<std::string, double> ladder = run_ladder(
        spec, scale, seed, kLadderOps, scratch + "/ladder");
    for (const auto& kv : ladder)
        m[kv.first] = kv.second;
    m["bench.gen_lag_us_p99"] = lag99;
    m["bench.trace_overhead_frac"] = 1.0 - ratio(traced, untraced);
    if (std::fabs(m["bench.ladder_gap_frac"]) > 0.15)
        r.notes.push_back("finding: ladder per-op sum misses the inline "
                          "step time by "
                          + json_number(m["bench.ladder_gap_frac"]));
    for (const auto& lm : kLayerMetrics) {
        auto it = m.find(lm.first);
        if (it == m.end()) {
            std::fprintf(stderr, "pqbench: no value for %s\n", lm.first);
            std::abort();
        }
        r.add(lm.first, lm.second, {it->second});
    }
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload, scratch = ".bench_build/pqbench/scratch";
    uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    Scale scale;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string a = argv[i];
        const char* v = argv[i + 1];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            seconds = std::atof(v);
        else if (a == "--trace")
            trace = std::atoi(v);
        else if (a == "--scratch")
            scratch = v;
        else {
            std::fprintf(stderr, "pqbench: unknown argument %s\n", a.c_str());
            return 2;
        }
    }
    const WorkloadSpec* spec = find_workload(workload);
    if (!spec || seconds <= 0) {
        std::fprintf(stderr, "usage: pqbench --workload <name> --seed <n> "
                             "--seconds <s> --trace <0|1>\n");
        return 2;
    }
    std::filesystem::remove_all(scratch);
    std::filesystem::create_directories(scratch);

    Report r;
    if (trace)
        run_traced(*spec, scale, seed, seconds, scratch, r);
    else
        run_untraced(*spec, scale, seed, seconds, scratch, r);
    std::filesystem::remove_all(scratch);

    bool correct = r.failed == 0;
    std::string out = "{\"workload\":" + json_string(spec->name)
        + ",\"seed\":" + std::to_string(seed)
        + ",\"trace\":" + std::to_string(trace)
        + ",\"seconds\":" + json_number(seconds)
        + ",\"scale\":{\"users\":" + std::to_string(scale.users)
        + ",\"avg_following\":" + std::to_string(scale.avg_following)
        + ",\"active\":" + std::to_string(scale.active)
        + ",\"seed_posts\":" + std::to_string(scale.seed_posts) + "}"
        + ",\"deployment\":{\"mode\":\"threaded\",\"shards\":"
        + std::to_string(kShards)
        + ",\"worker_threads\":" + std::to_string(kShards)
        + ",\"client_threads\":1,\"closed_loop_window\":"
        + std::to_string(kWindow)
        + ",\"fixed_rate_ops_s\":" + json_number(spec->fixed_rate)
        + ",\"slo_check_p99_us\":" + json_number(kSloCheckP99Us)
        + ",\"gen_lag_limit_us\":" + json_number(kGenLagLimitUs)
        + ",\"wal\":" + (spec->durable ? "\"fsync, group commit per frame\""
                                       : "null")
        + "},\"build\":{\"compiler\":" + json_string(PQB_COMPILER)
        + ",\"build_type\":" + json_string(PQB_BUILD_TYPE)
        + ",\"flags\":" + json_string(PQB_CXX_FLAGS) + "}"
        + ",\"correct\":" + (correct ? "true" : "false")
        + ",\"latency_valid\":" + (r.valid ? "true" : "false")
        + ",\"attempted\":" + std::to_string(r.attempted)
        + ",\"failed\":" + std::to_string(r.failed)
        + ",\"fail_frac\":"
        + json_number(r.attempted ? static_cast<double>(r.failed)
                                        / static_cast<double>(r.attempted)
                                  : 0)
        + ",\"notes\":[";
    for (size_t i = 0; i != r.notes.size(); ++i)
        out += (i ? "," : "") + json_string(r.notes[i]);
    for (bool gated : {true, false}) {
        out += gated ? "],\"metrics\":{" : "},\"reported\":{";
        bool first = true;
        for (const Metric& m : r.metrics) {
            if (m.gated != gated)
                continue;
            Summary s = summarize(m.samples);
            out += (first ? "" : ",") + json_string(m.name) + ":{\"value\":"
                + json_number(m.value) + ",\"unit\":" + json_string(m.unit)
                + ",\"n\":" + std::to_string(s.n) + ",\"median\":"
                + json_number(s.median) + ",\"q1\":" + json_number(s.q1)
                + ",\"q3\":" + json_number(s.q3) + "}";
            first = false;
        }
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return correct && r.valid ? 0 : 1;
}
