// pqbench: the end-to-end benchmark of the deployed sharded server
// (shard::ShardedServer, 2 worker threads, one in-process ShardClient
// thread) on three Twip workloads, plus the per-layer ladder that
// reconciles with it. See pqbench/README.md for why each workload
// exists and how every metric is measured.
//
// The harness touches the engine only through public calls. Its pieces:
//  - World/OpStream (workload.cc): the seeded social graph, the seed
//    posts, and each workload's deterministic op stream.
//  - Model (workload.cc): the oracle. It applies the base puts the
//    generator issued and recomputes the timeline join from them.
//  - Deployment (deploy.cc): setup plus the closed-loop, open-loop and
//    SLO-search drivers over the threaded server, and the oracle gate.
//  - run_ladder (ladder.cc): the traced run's layer-by-layer replay.
#ifndef PQBENCH_PQBENCH_HH
#define PQBENCH_PQBENCH_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/graph.hh"
#include "common/rng.hh"
#include "shard/sharded_server.hh"

namespace pqbench {

using pequod::Rng;

constexpr const char* kTimelineJoin =
    "t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>";
constexpr int kShards = 2;
// Ops a closed-loop client keeps outstanding.
constexpr int kWindow = 32;
// The SLO: check p99 at or under this, with no growing backlog.
constexpr double kSloCheckP99Us = 1000.0;
// An open-loop run is invalid when more than a tenth of its ops were
// sent later than this behind schedule: the client thread, not the
// server, then set the latency. A stall of the host delays a few ops; a
// saturated client delays most of them.
constexpr double kGenLagLimitUs = 1000.0;

struct Scale {
    uint32_t users = 100000;
    uint32_t avg_following = 16;
    uint32_t active = 20000;      // warm workloads' materialized timelines
    uint32_t seed_posts = 100000; // posts present before the first op
};

struct WorkloadSpec {
    const char* name;
    // Op mix weights, check:post:subscribe; unused with the login
    // schedule, which has its own.
    uint32_t check_w, post_w, subscribe_w;
    bool login_schedule;
    bool prematerialize;  // every active timeline materialized in setup
    bool durable;         // WAL on, fsync on, group commit per frame
    double fixed_rate;    // open-loop ops/s of the latency metrics
};

const WorkloadSpec* find_workload(const std::string& name);
const std::vector<WorkloadSpec>& workloads();

// ---- keys ---------------------------------------------------------------

std::string ukey(uint32_t u);
std::string edge_key(uint32_t u, uint32_t followee);
std::string post_key(uint32_t poster, uint64_t ts);
std::string post_value(uint32_t poster, uint64_t ts);
std::string timeline_key(uint32_t u, uint64_t ts, uint32_t poster);
std::string timeline_prefix(uint32_t u);  // "t|<u>|"

// ---- workload -----------------------------------------------------------

struct Op {
    enum Type : uint8_t { kCheck, kPost, kSubscribe };
    Type type = kCheck;
    bool login = false;  // a full check that materializes the timeline
    uint32_t user = 0;   // checker, poster or subscriber
    uint32_t other = 0;  // the followee of a subscribe
    uint64_t ts = 0;     // post timestamp; check lower bound (0 = full)
};

// Everything the seed fixes before the first op: the graph, the active
// users, the seed posts, and the login order.
struct World {
    World(const Scale& scale, uint64_t seed);
    Scale scale;
    uint64_t seed;
    pequod::apps::SocialGraph graph;
    std::vector<uint32_t> active;       // warm workloads' checkers
    std::vector<uint32_t> login_order;  // login-cold's users, no repeats
    std::vector<std::pair<uint32_t, uint64_t>> seed_posts;  // (poster, ts)
    uint64_t first_ts = 1;  // the first timestamp an op may use
};

// A workload's op stream: a pure function of the seed. next() returns
// false once login-cold runs out of users that never logged in.
class OpStream {
  public:
    OpStream(const WorkloadSpec& spec, const World& world);
    bool next(Op& op);

  private:
    bool next_login_cold(Op& op);
    void check_of(uint32_t u, Op& op);

    const WorkloadSpec& spec_;
    const World& world_;
    Rng rng_;
    uint64_t next_ts_;
    std::vector<uint64_t> last_seen_;  // per user
    // login-cold: the check schedule is login, then the second check of
    // the user who logged in kGap1 logins ago, then the third check of
    // the one kGap2 logins ago; one post per 60 checks.
    uint64_t logins_ = 0;
    int slot_ = 0;
    uint64_t checks_ = 0;
    bool post_due_ = false;
};

// Serialize op `op` into `out` (the self-test compares streams bytewise).
void append_op_bytes(const Op& op, std::string& out);

// The oracle: follow edges and posts as the generator issued them, and
// the timeline join recomputed from those base rows.
class Model {
  public:
    explicit Model(const World& world);
    // Record a base put the generator issued (posts and subscribes).
    void apply(const Op& op);
    void mark_materialized(uint32_t u) {
        if (!materialized_[u]) {
            materialized_[u] = 1;
            materialized_list_.push_back(u);
        }
    }
    bool materialized(uint32_t u) const {
        return materialized_[u] != 0;
    }
    const std::vector<uint32_t>& materialized_users() const {
        return materialized_list_;
    }
    // The join over the base rows: user u's full timeline, key order.
    std::vector<std::pair<std::string, std::string>> timeline(
        uint32_t u) const;
    // The same rows as sorted hash_row() values: what the oracle
    // compares, without building a string per row.
    std::vector<uint64_t> timeline_hashes(uint32_t u) const;
    const std::vector<uint32_t>& followers(uint32_t p) const {
        return followers_[p];
    }
    const std::vector<uint64_t>& posts_of(uint32_t p) const {
        return posts_[p];
    }
    // Key+value bytes of every base row written or loaded so far.
    uint64_t base_bytes() const {
        return base_bytes_;
    }

  private:
    std::vector<std::vector<uint32_t>> followees_;  // sorted
    std::vector<std::vector<uint32_t>> followers_;
    std::vector<std::vector<uint64_t>> posts_;  // ts, ascending
    std::vector<uint8_t> materialized_;
    std::vector<uint32_t> materialized_list_;
    uint64_t base_bytes_ = 0;
};

// ---- statistics -----------------------------------------------------------

double percentile(std::vector<double> v, double p);  // nearest rank
struct Summary {
    size_t n = 0;
    double median = 0, q1 = 0, q3 = 0;
};
Summary summarize(const std::vector<double>& samples);

// ---- deployment -----------------------------------------------------------

int64_t now_ns();  // steady clock

// Submit `op` through `client` as the deployment does; returns the ticket.
uint64_t submit_op(pequod::shard::ShardClient& client, const Op& op);
// The scan range of a check.
std::string check_lo(const Op& op);

// Per-op latency samples of one open-loop run, in microseconds, each
// also filed under the window its due time fell in.
struct OpenLoopResult {
    double rate = 0;
    std::vector<double> check_us, update_us, lag_us;
    std::vector<std::vector<double>> check_windows, update_windows;
    uint64_t backlog_at_end = 0;  // ops outstanding when arrivals stopped
};

// One client-boundary span of the traced closed loop. Spans of one op
// share `op` (its ticket); `parent` is the op's root span.
struct Span {
    uint32_t name;    // index into kSpanNames
    uint32_t parent;  // span index + 1; 0 = none
    uint64_t op;      // ticket; 0 = a flush, which carries several ops
    int64_t start_ns, end_ns;
};
extern const char* const kSpanNames[];
enum SpanName : uint32_t {
    kSpanOp,
    kSpanSubmitPut,
    kSpanSubmitScan,
    kSpanFlush,
    kSpanPollCompletion,
    kSpanPollReply,
};

class Deployment {
  public:
    // Generate the world, open the WAL (durable workloads), bulk load,
    // start the workers and pre-materialize; setup_seconds() times all
    // of it. `wal_dir` must not exist yet. In inline mode no workers
    // start: the caller drives the shards with step()/release_staged().
    Deployment(const WorkloadSpec& spec, const Scale& scale, uint64_t seed,
               const std::string& wal_dir, bool inline_mode = false);
    ~Deployment();
    Deployment(const Deployment&) = delete;
    Deployment& operator=(const Deployment&) = delete;

    double setup_seconds() const {
        return setup_s_;
    }

    // Closed loop with kWindow ops outstanding for `seconds` after a
    // warm-up; returns the ops/s of each `window_s` window.
    std::vector<double> closed_loop(double seconds, double window_s,
                                    std::vector<Span>* spans = nullptr);
    // Open loop at `rate` ops/s with exponential interarrivals, one op
    // per frame; each op is timed from when it was due.
    OpenLoopResult open_loop(double rate, double seconds, int windows);

    // Quiesce and join the workers.
    void stop();
    // The oracle gate, at quiescence: every materialized timeline equals
    // the join recomputed from the base puts issued, and every reply row
    // belongs to it. Returns the number of failures.
    uint64_t oracle_failures();
    // Durable workloads: shut down, reopen a server on the same WAL and
    // check every acknowledged put. Returns the number missing.
    uint64_t recovery_failures();
    // Sum of memory_stats().total() over shards per base key+value byte.
    double bytes_per_base_byte();

    uint64_t attempted() const {
        return attempted_;
    }
    uint64_t issued_of(Op::Type t) const {
        return by_type_[t];
    }
    uint64_t logins() const {
        return logins_;
    }
    uint64_t loaded() const {  // records bulk-loaded in setup
        return loaded_;
    }
    pequod::shard::ShardedServer& server() {
        return *ss_;
    }
    pequod::shard::ShardClient& client() {
        return *client_;
    }
    const World& world() const {
        return *world_;
    }
    const Model& model() const {
        return *model_;
    }

  private:
    struct Pending {
        Op op;
        int64_t due_ns = 0;
        uint32_t span = 0;  // root span index + 1 (traced runs)
        bool done = true;
    };
    uint64_t submit(const Op& op, int64_t due_ns, std::vector<Span>* spans);
    // Drain every completion and reply that has arrived.
    void poll(OpenLoopResult* lat, int64_t t0, double window_ns,
              std::vector<Span>* spans);
    void finish(uint64_t ticket, int64_t now, OpenLoopResult* lat,
                int64_t t0, double window_ns, std::vector<Span>* spans);
    void drain(OpenLoopResult* lat, int64_t t0, double window_ns);
    void prematerialize();
    void step_inline();

    const WorkloadSpec& spec_;
    pequod::shard::ShardConfig config_;
    std::unique_ptr<World> world_;
    std::unique_ptr<Model> model_;
    std::unique_ptr<OpStream> stream_;
    std::unique_ptr<pequod::shard::ShardedServer> ss_;
    pequod::shard::ShardClient* client_ = nullptr;
    double setup_s_ = 0;
    bool inline_ = false;

    // Every op submitted after setup, indexed by ticket - ticket_base_
    // (a client's tickets are dense and increasing). Deques, so growth
    // never copies them: a multi-MB copy stalls the open-loop client.
    std::deque<Pending> ops_;
    uint64_t ticket_base_ = 0;
    uint64_t outstanding_ = 0;
    uint64_t completed_ = 0;
    uint64_t attempted_ = 0;
    uint64_t by_type_[3] = {0, 0, 0};
    uint64_t logins_ = 0;
    uint64_t loaded_ = 0;
    // Reply rows as (user, hash of key and value), checked against the
    // recomputed join at quiescence; rows outside the scanned range are
    // counted at once.
    std::deque<std::pair<uint32_t, uint64_t>> reply_rows_;
    uint64_t bad_reply_rows_ = 0;
};

// ---- traced run -------------------------------------------------------------

// Run the layer ladder for `spec` over the first `nops` ops of the seed's
// stream and return the per-layer metrics (name -> value).
std::map<std::string, double> run_ladder(const WorkloadSpec& spec,
                                         const Scale& scale, uint64_t seed,
                                         uint64_t nops,
                                         const std::string& scratch_dir);

uint64_t hash_row(pequod::Str key, pequod::Str value);

}  // namespace pqbench

#endif
