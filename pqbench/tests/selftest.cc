// The harness's own test, at a tiny scale (5000 users):
//  - one seed generates a byte-identical op stream twice, per workload;
//  - login-cold materializes on exactly one check in three;
//  - the oracle catches a wrong t| row planted at quiescence;
//  - a second seed passes the gate on every workload, and the durable
//    workload passes its recovery check.
// Runs from any directory; WAL directories go under the current one.
//
//   ctest --test-dir .bench_build/pqbench   (or run pqbench_selftest)
#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "common/base.hh"
#include "pqbench.hh"

using namespace pqbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

Scale tiny() {
    Scale s;
    s.users = 5000;
    s.active = 1000;
    s.seed_posts = 5000;
    return s;
}

std::string stream_bytes(const WorkloadSpec& spec, uint64_t seed, int n) {
    World world(tiny(), seed);
    OpStream stream(spec, world);
    std::string out;
    Op op;
    for (int i = 0; i != n && stream.next(op); ++i)
        append_op_bytes(op, out);
    return out;
}

std::string wal_dir(const char* tag) {
    return (std::filesystem::current_path()
            / ("selftest-wal-" + std::to_string(getpid()) + "-" + tag))
        .string();
}

}  // namespace

int main() {
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    for (const WorkloadSpec& spec : workloads()) {
        std::string a = stream_bytes(spec, 7, 3000);
        std::string b = stream_bytes(spec, 7, 3000);
        std::string c = stream_bytes(spec, 8, 3000);
        expect(!a.empty() && a == b,
               std::string(spec.name) + ": seed 7 op stream is byte-identical "
                                        "on regeneration");
        expect(a != c, std::string(spec.name) + ": seed 8 differs from seed 7");
    }

    {
        World world(tiny(), 7);
        OpStream stream(*find_workload("login-cold"), world);
        uint64_t checks = 0, logins = 0, posts = 0;
        Op op;
        while (checks != 1200 && stream.next(op)) {
            checks += op.type == Op::kCheck;
            logins += op.login;
            posts += op.type == Op::kPost;
        }
        expect(checks == 1200 && logins == 400 && posts == 119,
               "login-cold: 1200 checks hold 400 logins and 119 posts");
    }

    {
        Deployment d(*find_workload("twip-warm"), tiny(), 7, wal_dir("plant"));
        d.closed_loop(0.1, 0.05);
        d.stop();
        expect(d.oracle_failures() == 0, "twip-warm seed 7: clean run passes");
        uint32_t u = d.model().materialized_users().front();
        std::string key = timeline_key(u, 9999999999ULL, 1);
        int home = pequod::shard::shard_of(timeline_prefix(u), kShards);
        d.server().server(home).put(key, post_value(1, 9999999999ULL));
        expect(d.oracle_failures() == 1,
               "twip-warm seed 7: a planted t| row fails the oracle");
    }

    for (const WorkloadSpec& spec : workloads()) {
        Deployment d(spec, tiny(), 8, wal_dir(spec.name));
        d.closed_loop(0.1, 0.05);
        OpenLoopResult r = d.open_loop(1000, 0.2, 1);
        d.stop();
        expect(d.attempted() > 0 && !r.check_us.empty(),
               std::string(spec.name) + " seed 8: ops completed");
        expect(d.oracle_failures() == 0,
               std::string(spec.name) + " seed 8: passes the oracle gate");
        if (spec.durable)
            expect(d.recovery_failures() == 0,
                   std::string(spec.name)
                       + " seed 8: every acknowledged put recovered");
    }

    std::printf("%s\n", failures ? "SELFTEST FAILED" : "SELFTEST PASSED");
    return failures ? 1 : 0;
}
