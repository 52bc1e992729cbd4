// perfbench: the repository benchmark's workload runner.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//
// Workloads: encode-longformer4096, serve-mixed-open, decode-4096streams.
// Prints a human-readable table, then one JSON line with every metric the
// workload measured (end_to_end and per_layer), the host fingerprint and
// the correctness verdict. perfbench/run.py builds this binary and turns
// that line into the benchmark's result record.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"
#include "sim/kernels.hpp"

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

void print_metrics(const char* section, const std::map<std::string, Metric>& metrics,
                   bool& first) {
    std::printf("%s\"%s\": {", first ? "" : ", ", section);
    first = false;
    bool first_metric = true;
    for (const auto& [name, m] : metrics) {
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first_metric ? "" : ", ",
                    name.c_str(), v, m.unit.c_str());
        first_metric = false;
    }
    std::printf("}");
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload <encode-longformer4096|serve-mixed-open|"
                 "decode-4096streams> --seed <n> --seconds <s> --trace <0|1> --out <dir>\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload;
    WorkloadArgs args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* value = argv[i + 1];
        if (flag == "--workload") workload = value;
        else if (flag == "--seed") args.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds") args.seconds = std::atof(value);
        else if (flag == "--trace") args.trace = std::atoi(value) != 0;
        else if (flag == "--out") args.out_dir = value;
        else return usage();
    }
    if (argc % 2 != 1 || args.seconds <= 0.0 || args.out_dir.empty()) return usage();

    RunResult r;
    try {
        if (workload == "encode-longformer4096") r = run_encode(args);
        else if (workload == "serve-mixed-open") r = run_serve(args);
        else if (workload == "decode-4096streams") r = run_decode(args);
        else return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(), e.what());
        return 1;
    }

    r.notes["kernel_isa"] = salo::kernels::isa_name();
    r.notes["nproc"] = std::to_string(salo::default_num_threads());
    r.notes["compiler"] = __VERSION__;

    const double failed_share =
        r.attempted == 0 ? 0.0
                         : static_cast<double>(r.failed) / static_cast<double>(r.attempted);
    std::printf("workload %s  seed %llu  trace %d\n", workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
    for (const auto& [k, v] : r.notes) std::printf("  %-26s %s\n", k.c_str(), v.c_str());
    std::printf("  %-26s %.6f share (%llu of %llu)\n", "failed_share", failed_share,
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    for (const auto* section : {&r.end_to_end, &r.per_layer})
        for (const auto& [k, m] : *section)
            std::printf("  %-26s %.6g %s\n", k.c_str(), m.value, m.unit.c_str());
    for (const auto& [alias, name] : r.aliases)
        std::printf("  %-26s %.6g %s (= %s)\n", alias.c_str(), r.end_to_end[name].value,
                    r.end_to_end[name].unit.c_str(), name.c_str());
    std::printf("  %-26s %s\n", "correct", r.correct ? "yes" : "NO");

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    bool first = true;
    print_metrics("end_to_end", r.end_to_end, first);
    print_metrics("per_layer", r.per_layer, first);
    std::printf(", \"notes\": {");
    bool first_note = true;
    for (const auto& [k, v] : r.notes) {
        std::printf("%s\"%s\": \"%s\"", first_note ? "" : ", ", k.c_str(),
                    json_escape(v).c_str());
        first_note = false;
    }
    std::printf("}}\n");
    return r.correct ? 0 : 1;
}
