// Workload generation and the oracle model. Everything here is a pure
// function of the seed: the same seed gives the same graph, the same
// seed posts and the same op stream, byte for byte.
#include <algorithm>
#include <cmath>

#include "common/base.hh"
#include "pqbench.hh"

namespace pqbench {

using pequod::pad_number;

namespace {

// Each fixed rate sits well below the workload's closed-loop throughput
// on the reference 4-core host (README.md): about a third for
// twip-warm, a quarter for post-fanout-durable, and a tenth for
// login-cold, whose checks mix ~300-us logins with ~20-us incremental
// scans; near half load its median check flips between the two.
const std::vector<WorkloadSpec> kWorkloads = {
    {"twip-warm", 60, 1, 10, false, true, false, 30000},
    {"login-cold", 0, 0, 0, true, false, false, 1200},
    {"post-fanout-durable", 10, 10, 1, false, true, true, 4000},
};

// login-cold: a user's second check comes kGap1 logins after their
// login, the third kGap2 logins after it.
constexpr uint64_t kGap1 = 50;
constexpr uint64_t kGap2 = 500;
// login-cold: one post after every kChecksPerPost checks. The paper's
// Twip ratio is one per 60; at this workload's fixed rate that leaves
// under 100 update samples per run, too few for update percentiles that
// repeat (README.md), so posts come six times as often. Fan-out stays
// light.
constexpr uint64_t kChecksPerPost = 10;

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
    return kWorkloads;
}

const WorkloadSpec* find_workload(const std::string& name) {
    for (const WorkloadSpec& w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

// ---- keys -------------------------------------------------------------------

std::string ukey(uint32_t u) {
    return pad_number(u, 8);
}

namespace {

// Appends x as `width` zero-padded decimal digits (x < 10^width).
void put_padded(std::string& s, uint64_t x, int width) {
    size_t n = s.size();
    s.resize(n + static_cast<size_t>(width));
    for (int i = width - 1; i >= 0; --i) {
        s[n + static_cast<size_t>(i)] = static_cast<char>('0' + x % 10);
        x /= 10;
    }
}

void append_timeline_key(std::string& s, uint32_t u, uint64_t ts,
                         uint32_t poster) {
    s += "t|";
    put_padded(s, u, 8);
    s += '|';
    put_padded(s, ts, 10);
    s += '|';
    put_padded(s, poster, 8);
}

// ~80 bytes, a function of (poster, ts) so the oracle can check the
// value a timeline row carries, not only its key.
void append_post_value(std::string& s, uint32_t poster, uint64_t ts) {
    s += "post ";
    put_padded(s, ts, 10);
    s += " by ";
    put_padded(s, poster, 8);
    s += ": an eighty-byte-ish body standing in for a tweet";
}

}  // namespace

std::string edge_key(uint32_t u, uint32_t followee) {
    return "s|" + ukey(u) + "|" + ukey(followee);
}

std::string post_key(uint32_t poster, uint64_t ts) {
    return "p|" + ukey(poster) + "|" + pad_number(ts, 10);
}

std::string post_value(uint32_t poster, uint64_t ts) {
    std::string v;
    append_post_value(v, poster, ts);
    return v;
}

std::string timeline_key(uint32_t u, uint64_t ts, uint32_t poster) {
    std::string k;
    append_timeline_key(k, u, ts, poster);
    return k;
}

std::string timeline_prefix(uint32_t u) {
    return "t|" + ukey(u) + "|";
}

uint64_t hash_row(pequod::Str key, pequod::Str value) {
    uint64_t h = 1469598103934665603ULL;
    for (char c : key)
        h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
    h = (h ^ 0xff) * 1099511628211ULL;
    for (char c : value)
        h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
    return h;
}

// ---- world ------------------------------------------------------------------

World::World(const Scale& s, uint64_t sd) : scale(s), seed(sd) {
    pequod::apps::SocialGraph::Config gcfg;
    gcfg.users = s.users;
    gcfg.avg_following = s.avg_following;
    gcfg.seed = sd;
    graph = pequod::apps::SocialGraph::generate(gcfg);

    Rng rng(sd * 0x9e3779b97f4a7c15ULL + 11);
    // One seeded permutation gives both the active set (its prefix) and
    // the login order.
    login_order.resize(s.users);
    for (uint32_t u = 0; u != s.users; ++u)
        login_order[u] = u;
    for (uint32_t i = s.users; i > 1; --i)
        std::swap(login_order[i - 1],
                  login_order[static_cast<size_t>(rng.below(i))]);
    active.assign(login_order.begin(),
                  login_order.begin() + std::min(s.active, s.users));

    uint64_t ts = 1;
    seed_posts.reserve(s.seed_posts);
    for (uint32_t i = 0; i != s.seed_posts; ++i)
        seed_posts.emplace_back(graph.sample_poster(rng), ts++);
    first_ts = ts;
}

// ---- op stream --------------------------------------------------------------

OpStream::OpStream(const WorkloadSpec& spec, const World& world)
    : spec_(spec),
      world_(world),
      rng_(world.seed * 0xbf58476d1ce4e5b9ULL + 17),
      next_ts_(world.first_ts),
      last_seen_(world.scale.users, world.first_ts) {}

void OpStream::check_of(uint32_t u, Op& op) {
    op.type = Op::kCheck;
    op.user = u;
    op.ts = last_seen_[u];
    last_seen_[u] = next_ts_;
}

bool OpStream::next(Op& op) {
    op = Op();
    if (spec_.login_schedule)
        return next_login_cold(op);
    uint64_t total = spec_.check_w + spec_.post_w + spec_.subscribe_w;
    uint64_t w = rng_.below(total);
    const std::vector<uint32_t>& active = world_.active;
    if (w < spec_.check_w) {
        check_of(active[static_cast<size_t>(rng_.below(active.size()))], op);
    } else if (w < spec_.check_w + spec_.post_w) {
        // Posters are uniform over users (README.md: with the §5.1
        // log-follower rule, posts from the few accounts followed by
        // most users block a shard for tens of ms each, and how many
        // land in a run decides its p99).
        op.type = Op::kPost;
        op.user = static_cast<uint32_t>(rng_.below(world_.scale.users));
        op.ts = next_ts_++;
    } else {
        op.type = Op::kSubscribe;
        op.user = active[static_cast<size_t>(rng_.below(active.size()))];
        op.other = static_cast<uint32_t>(rng_.below(world_.scale.users));
    }
    return true;
}

bool OpStream::next_login_cold(Op& op) {
    if (post_due_) {
        post_due_ = false;
        op.type = Op::kPost;
        op.user = static_cast<uint32_t>(rng_.below(world_.scale.users));
        op.ts = next_ts_++;
        return true;
    }
    const std::vector<uint32_t>& order = world_.login_order;
    if (slot_ == 0) {
        if (logins_ == order.size())
            return false;
        check_of(order[static_cast<size_t>(logins_++)], op);
        op.ts = 0;
        op.login = true;
    } else {
        // The latest login stands in while fewer than kGap logins exist,
        // so exactly one check in three materializes from the start.
        uint64_t gap = slot_ == 1 ? kGap1 : kGap2;
        uint64_t i = logins_ - 1;
        check_of(order[static_cast<size_t>(i >= gap ? i - gap : i)], op);
    }
    slot_ = (slot_ + 1) % 3;
    if (++checks_ % kChecksPerPost == 0)
        post_due_ = true;
    return true;
}

void append_op_bytes(const Op& op, std::string& out) {
    out += static_cast<char>(op.type);
    out += op.login ? 'L' : '-';
    out += ukey(op.user);
    out += ukey(op.other);
    out += pad_number(op.ts, 10);
}

// ---- model ------------------------------------------------------------------

Model::Model(const World& world)
    : followees_(world.scale.users),
      followers_(world.scale.users),
      posts_(world.scale.users),
      materialized_(world.scale.users, 0) {
    for (uint32_t u = 0; u != world.scale.users; ++u) {
        followees_[u] = world.graph.following(u);
        for (uint32_t f : followees_[u]) {
            followers_[f].push_back(u);
            base_bytes_ += edge_key(u, f).size() + 1;
        }
    }
    for (const auto& sp : world.seed_posts) {
        posts_[sp.first].push_back(sp.second);
        base_bytes_ += post_key(sp.first, sp.second).size()
            + post_value(sp.first, sp.second).size();
    }
}

void Model::apply(const Op& op) {
    if (op.type == Op::kPost) {
        posts_[op.user].push_back(op.ts);
        base_bytes_ += post_key(op.user, op.ts).size()
            + post_value(op.user, op.ts).size();
    } else if (op.type == Op::kSubscribe) {
        base_bytes_ += edge_key(op.user, op.other).size() + 1;
        std::vector<uint32_t>& fs = followees_[op.user];
        auto it = std::lower_bound(fs.begin(), fs.end(), op.other);
        if (it == fs.end() || *it != op.other) {
            fs.insert(it, op.other);
            followers_[op.other].push_back(op.user);
        }
    } else if (op.login) {
        mark_materialized(op.user);
    }
}

std::vector<uint64_t> Model::timeline_hashes(uint32_t u) const {
    std::vector<uint64_t> hashes;
    std::string key, value;
    for (uint32_t f : followees_[u])
        for (uint64_t ts : posts_[f]) {
            key.clear();
            append_timeline_key(key, u, ts, f);
            value.clear();
            append_post_value(value, f, ts);
            hashes.push_back(hash_row(key, value));
        }
    std::sort(hashes.begin(), hashes.end());
    return hashes;
}

std::vector<std::pair<std::string, std::string>> Model::timeline(
    uint32_t u) const {
    std::vector<std::pair<std::string, std::string>> rows;
    for (uint32_t f : followees_[u])
        for (uint64_t ts : posts_[f])
            rows.emplace_back(timeline_key(u, ts, f), post_value(f, ts));
    std::sort(rows.begin(), rows.end());
    return rows;
}

// ---- statistics -------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest sample with at least p% at or below it.
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0
                                                * static_cast<double>(
                                                    v.size())));
    if (rank == 0)
        rank = 1;
    return v[std::min(rank, v.size()) - 1];
}

Summary summarize(const std::vector<double>& samples) {
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    std::vector<double> v = samples;
    std::sort(v.begin(), v.end());
    // Linear interpolation between closest ranks, matching Python's
    // statistics.quantiles(method="inclusive") for n >= 2.
    auto q = [&v](double f) {
        double pos = f * static_cast<double>(v.size() - 1);
        size_t lo = static_cast<size_t>(pos);
        size_t hi = std::min(lo + 1, v.size() - 1);
        return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
    };
    s.median = q(0.5);
    s.q1 = q(0.25);
    s.q3 = q(0.75);
    return s;
}

}  // namespace pqbench
