/**
 * @file
 * One repetition of a perfbench workload, as a closed batch: the whole
 * job is submitted once and the process exits when it is done. Prints
 * one JSON object on stdout with the repetition's host timings, its
 * simulated outputs, an output digest and the failed output checks;
 * perfbench/run.py repeats this process and turns the objects into the
 * benchmark's metrics.
 *
 * Usage:
 *   hira_perfbench --workload periodic_capacity|para_nrh|chip_characterize
 *                  --seed N
 *   hira_perfbench --workload calibrate
 *
 * The calibrate mode times a fixed kernel of the benchmark's own, which
 * run.py uses to follow the host's speed between repetitions.
 *
 * The library is driven only through the calls the figure drivers use:
 * makeMixes, SweepRunner (constructor, aloneIpc, runPoints), DramChip,
 * measureCoverage and measureNormalizedNrh. Every one of those calls is
 * wrapped in a "bench" trace span, so a run with HIRA_TRACE_EVENTS set
 * attributes host time to them.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "characterize/coverage.hh"
#include "characterize/rowhammer.hh"
#include "chip/modules.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/trace_events.hh"
#include "dram/timing.hh"
#include "sim/experiment.hh"
#include "sim/workloads.hh"

using namespace hira;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Knob scale of one repetition. The sweep grids run 16 mixes at about a
 * tenth of the figure drivers' default cycles, so that a repetition
 * takes a few seconds and the mixes one seed draws average out.
 * chip_characterize uses Table 1's row derivation at rows = 1024 on
 * every bank of kChipBanks, one work item per bank, so that the pool
 * stays balanced.
 */
constexpr std::uint32_t kChipBanks = 8;

BenchKnobs
workloadKnobs(const std::string &workload)
{
    BenchKnobs k;
    k.threads = std::max(1u, std::thread::hardware_concurrency());
    k.mixes = 16;
    k.cores = 8;
    k.cycles = workload == "para_nrh" ? 15000 : 12000;
    k.warmup = k.cycles / 5;
    k.rows = 1024;
    return k;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    BenchKnobs knobs;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        if (key == "--workload")
            a.workload = argv[i + 1];
        else if (key == "--seed")
            a.seed = std::strtoull(argv[i + 1], nullptr, 10);
        else
            fatal("hira_perfbench: unknown option '%s'", key.c_str());
    }
    if (a.workload != "periodic_capacity" && a.workload != "para_nrh" &&
        a.workload != "chip_characterize" && a.workload != "calibrate") {
        fatal("hira_perfbench: unknown workload '%s'", a.workload.c_str());
    }
    a.knobs = workloadKnobs(a.workload);
    return a;
}

/** FNV-1a over the exact bytes of every checked output. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    void
    add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    std::string
    hex() const
    {
        return strprintf("%016llx", static_cast<unsigned long long>(h));
    }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

/** Accumulates the JSON members of the result object. */
class JsonOut
{
  public:
    void
    num(const std::string &key, double v)
    {
        raw(key, std::isfinite(v) ? jsonDouble(v) : std::string("null"));
    }
    void
    str(const std::string &key, const std::string &v)
    {
        raw(key, quoted(v));
    }
    void
    raw(const std::string &key, const std::string &json)
    {
        body += (body.empty() ? "" : ", ") + quoted(key) + ": " + json;
    }
    static std::string
    quoted(const std::string &s)
    {
        return "\"" + jsonEscape(s) + "\"";
    }
    std::string object() const { return "{" + body + "}"; }

  private:
    std::string body;
};

/** Ran operations and failed output checks of one repetition. */
struct Verdict
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> messages;

    /** Count @p ops operations, failing them all unless @p ok. */
    void
    check(bool ok, std::uint64_t ops, const std::string &what)
    {
        attempted += ops;
        if (!ok) {
            failed += ops;
            messages.push_back(what);
        }
    }
};

std::string
jsonStrings(const std::vector<std::string> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        s += (i ? ", " : "") + JsonOut::quoted(v[i]);
    return s + "]";
}

/** Run @p fn(i) for every i in [0, n) on @p threads threads. */
template <class Fn>
void
parallelFor(int threads, std::size_t n, Fn fn)
{
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i = next++; i < n; i = next++)
            fn(i);
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
}

// ----------------------------------------------------------------------
// Host-speed calibration
// ----------------------------------------------------------------------

/**
 * One thread's share of the calibration kernel: a 64-entry event heap
 * and a 256 KB table of counters updated at pseudo-random indices, as
 * in the simulator's event loop and bank state, plus every tenth step
 * an update at a pseudo-random index of a 32 MB table. The simulator is
 * partly bound by the shared last-level cache and memory, whose
 * contention on a shared host varies from moment to moment; the large
 * table makes the kernel feel that contention too. Returns a checksum
 * so that the work cannot be optimized away.
 */
std::uint64_t
calibrationKernel(std::vector<std::uint32_t> &big)
{
    constexpr std::uint64_t kSmallMask = (1u << 16) - 1;
    constexpr long kIterations = 3000000;
    const std::uint64_t bigMask = big.size() - 1;
    std::vector<std::uint32_t> small(kSmallMask + 1);
    std::vector<std::uint64_t> heap;
    auto later = std::greater<std::uint64_t>();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (int i = 0; i < 64; ++i) {
        heap.push_back(next() & 0xffff);
        std::push_heap(heap.begin(), heap.end(), later);
    }
    for (long i = 0; i < kIterations; ++i) {
        std::pop_heap(heap.begin(), heap.end(), later);
        const std::uint64_t t = heap.back();
        const std::uint64_t r = next();
        std::uint32_t &c = small[(r ^ t) & kSmallMask];
        if ((c & 3) == 0)
            acc += c;
        else
            acc ^= t;
        c += static_cast<std::uint32_t>(r >> 40) | 1;
        if (i % 10 == 0)
            acc += big[(r >> 20) & bigMask]++;
        heap.back() = t + 1 + (r & 63);
        std::push_heap(heap.begin(), heap.end(), later);
    }
    return acc + small[0];
}

/**
 * Time the calibration kernel on @p threads threads, one identical
 * share each, so that every share gives the same checksum on any thread
 * count. The large tables are allocated and touched before the clock
 * starts. The kernel's work is fixed in this file and uses no library
 * code, so a change to the library cannot move it; run.py times it
 * between repetitions to follow the host's speed.
 */
void
runCalibration(int threads, JsonOut &out)
{
    std::vector<std::vector<std::uint32_t>> big(
        threads, std::vector<std::uint32_t>(std::size_t(1) << 23));
    std::vector<std::uint64_t> sums(threads);
    Clock::time_point t0 = Clock::now();
    parallelFor(threads, sums.size(), [&](std::size_t i) {
        sums[i] = calibrationKernel(big[i]);
    });
    out.num("calib_s", secondsSince(t0));
    const std::uint64_t sum = sums[0];
    const bool same = std::all_of(sums.begin(), sums.end(),
                                  [sum](std::uint64_t v) { return v == sum; });
    out.str("checksum",
            same ? strprintf("%016llx", static_cast<unsigned long long>(sum))
                 : std::string("shares differ"));
}

// ----------------------------------------------------------------------
// Simulation workloads
// ----------------------------------------------------------------------

/** One plan point plus the index of its reference point (or itself). */
struct PlannedPoint
{
    SweepPoint point;
    std::size_t reference;
};

/**
 * Fig. 9 grid: NoRefresh, Baseline and HiRA-{0,2,4,8} at every chip
 * capacity from 2 to 128 Gb. Each point's reference is the NoRefresh
 * point of its capacity.
 */
std::vector<PlannedPoint>
periodicCapacityPlan()
{
    const std::vector<double> capacities = {2, 4, 8, 16, 32, 64, 128};
    std::vector<SchemeSpec> schemes(6);
    schemes[0].kind = SchemeKind::NoRefresh;
    schemes[1].kind = SchemeKind::Baseline;
    const int slacks[] = {0, 2, 4, 8};
    for (int i = 0; i < 4; ++i) {
        schemes[2 + i].kind = SchemeKind::HiraMc;
        schemes[2 + i].slackN = slacks[i];
    }
    std::vector<PlannedPoint> plan;
    for (const SchemeSpec &s : schemes) {
        for (std::size_t ci = 0; ci < capacities.size(); ++ci) {
            GeomSpec g;
            g.capacityGb = capacities[ci];
            plan.push_back({SweepPoint{g, s}, ci});
        }
    }
    return plan;
}

/**
 * Fig. 12 grid at 8 Gb: a no-defense Baseline plus PARA and
 * PARA-via-HiRA-{0,2,4,8} at NRH 1024..64. Every point's reference is
 * the no-defense Baseline.
 */
std::vector<PlannedPoint>
paraNrhPlan()
{
    std::vector<PlannedPoint> plan;
    GeomSpec g;
    SchemeSpec base;
    base.kind = SchemeKind::Baseline;
    plan.push_back({SweepPoint{g, base}, 0});
    for (int slack : {-1, 0, 2, 4, 8}) {
        for (double nrh : {1024.0, 512.0, 256.0, 128.0, 64.0}) {
            SchemeSpec s;
            s.kind = SchemeKind::Baseline;
            s.paraEnabled = true;
            s.nrh = nrh;
            if (slack >= 0) {
                s.preventiveViaHira = true;
                s.slackN = slack;
            }
            plan.push_back({SweepPoint{g, s}, 0});
        }
    }
    return plan;
}

/** Merged metrics as a flat JSON object; histograms give .count/.sum. */
std::string
metricsJson(const MetricsSnapshot &m)
{
    JsonOut o;
    for (const auto &kv : m.values) {
        const MetricValue &v = kv.second;
        switch (v.kind) {
          case MetricValue::Kind::Counter:
            o.num(kv.first, static_cast<double>(v.count));
            break;
          case MetricValue::Kind::Gauge:
            o.num(kv.first, v.value);
            break;
          case MetricValue::Kind::Histogram:
            o.num(kv.first + ".count", static_cast<double>(v.count));
            o.num(kv.first + ".sum", v.value);
            break;
        }
    }
    return o.object();
}

void
runSweep(const Args &args, JsonOut &out, Verdict &verdict, Digest &digest)
{
    const bool periodic = args.workload == "periodic_capacity";
    std::vector<PlannedPoint> planned =
        periodic ? periodicCapacityPlan() : paraNrhPlan();
    std::vector<SweepPoint> plan;
    for (const PlannedPoint &p : planned)
        plan.push_back(p.point);

    std::vector<WorkloadMix> mixes =
        makeMixes(args.knobs.mixes, args.knobs.cores, args.seed);

    // Set-up: the runner, then every alone-IPC reference the plan needs,
    // primed on knobs.threads threads so runPoints() measures only the
    // (point x mix) simulations.
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<SweepRunner> runner;
    {
        TraceSpan span("SweepRunner", "bench");
        runner = std::make_unique<SweepRunner>(args.knobs, mixes);
    }
    std::vector<std::pair<std::string, GeomSpec>> refs;
    {
        std::set<std::string> seen;
        for (const SweepPoint &p : plan) {
            for (const WorkloadMix &mix : mixes) {
                for (const std::string &b : mix) {
                    if (seen.insert(aloneIpcCacheKey(b, p.geom)).second)
                        refs.emplace_back(b, p.geom);
                }
            }
        }
    }
    parallelFor(args.knobs.threads, refs.size(), [&](std::size_t i) {
        TraceSpan span("aloneIpc", "bench");
        runner->aloneIpc(refs[i].first, refs[i].second);
    });
    const double setup = secondsSince(t0);

    Clock::time_point t1 = Clock::now();
    std::vector<PointResult> results;
    {
        TraceSpan span("runPoints", "bench");
        results = runner->runPoints(plan);
    }
    const double measure = secondsSince(t1);

    // Output checks and digest over every point's result.
    std::uint64_t simCycles = 0;
    double busy = 0.0, refBusy = 0.0, schemeBusy = 0.0;
    MetricsSnapshot merged;
    RefreshStats total;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const PointResult &r = results[i];
        const RefreshStats &rs = r.refresh;
        const std::string label =
            plan[i].scheme.label() + " @ " + plan[i].geom.key();
        verdict.check(std::isfinite(r.meanWs) && r.meanWs > 0.0 &&
                          rs.preventiveDropped <= rs.preventiveGenerated &&
                          !r.cacheHit,
                      mixes.size(), "point " + label);
        digest.add(r.meanWs);
        for (std::uint64_t v :
             {rs.refCommands, rs.rowRefreshes, rs.accessPaired,
              rs.refreshPaired, rs.standalone, rs.deadlineMisses,
              rs.preventiveGenerated, rs.preventiveDropped}) {
            digest.add(v);
        }
        simCycles += r.simCycles;
        busy += r.wallSeconds;
        merged.merge(r.metrics);
        total.rowRefreshes += rs.rowRefreshes;
        total.deadlineMisses += rs.deadlineMisses;
        total.preventiveGenerated += rs.preventiveGenerated;
        total.preventiveDropped += rs.preventiveDropped;
        if (planned[i].reference != i) {
            refBusy += results[planned[i].reference].wallSeconds;
            schemeBusy += r.wallSeconds;
        }
    }

    // Headline ratios, printed beside the paper's values (unvalidated
    // model: no error figure).
    JsonOut headline;
    if (periodic) {
        // Row-major plan: scheme s at capacity c is index 7 * s + c.
        const double noref = results[6].meanWs;
        const double base = results[7 + 6].meanWs;
        const double hira2 = results[7 * 3 + 6].meanWs;
        headline.num("baseline_overhead_128gb", 1.0 - base / noref);
        headline.num("paper_baseline_overhead_128gb", 0.263);
        headline.num("hira2_vs_baseline_128gb", hira2 / base - 1.0);
        headline.num("paper_hira2_vs_baseline_128gb", 0.126);
    } else {
        // Index 1 + 5 * s + n; slack order PARA, 0, 2, 4, 8.
        const double base = results[0].meanWs;
        const double para64 = results[1 + 4].meanWs;
        const double hira4_64 = results[1 + 5 * 3 + 4].meanWs;
        headline.num("para_overhead_nrh64", 1.0 - para64 / base);
        headline.num("paper_para_overhead_nrh64", 0.96);
        headline.num("hira4_over_para_nrh64", hira4_64 / para64);
        headline.num("paper_hira4_over_para_nrh64", 3.73);
    }
    headline.num("preventive_generated",
                 static_cast<double>(total.preventiveGenerated));
    headline.num("preventive_dropped",
                 static_cast<double>(total.preventiveDropped));
    headline.num("row_refreshes", static_cast<double>(total.rowRefreshes));
    headline.num("late_refreshes", static_cast<double>(total.deadlineMisses));

    out.num("setup_s", setup);
    out.num("measure_s", measure);
    out.num("sim_cycles", static_cast<double>(simCycles));
    out.num("busy_s", busy);
    out.num("points", static_cast<double>(plan.size()));
    out.num("sims", static_cast<double>(plan.size() * mixes.size()));
    out.num("alone_runs", static_cast<double>(runner->aloneRunCount()));
    out.num("host_overhead_frac",
            schemeBusy > 0.0 ? 1.0 - refBusy / schemeBusy : 0.0);
    out.raw("outputs", headline.object());
    out.raw("metrics", metricsJson(merged));
}

// ----------------------------------------------------------------------
// Chip characterization workload
// ----------------------------------------------------------------------

/** Per-row samples of one characterization experiment into the digest. */
void
digestSamples(Digest &digest, const SampleSet &s)
{
    digest.add(static_cast<std::uint64_t>(s.size()));
    for (double v : s.values())
        digest.add(v);
}

bool
allFinitePositive(const SampleSet &s)
{
    for (double v : s.values()) {
        if (!(std::isfinite(v) && v > 0.0))
            return false;
    }
    return !s.empty();
}

/** One tested bank of one module, on a chip model of its own. */
struct ChipItem
{
    std::size_t module; //!< index into the module list
    BankId bank;
    std::unique_ptr<DramChip> chip;
    std::vector<RowId> tested; //!< coverage rows; empty for controls
    std::vector<RowId> victims;
    CoverageResult coverage;
    NormalizedNrhResult nrh;
};

void
runChip(const Args &args, JsonOut &out, Verdict &verdict, Digest &digest)
{
    // Table 1 scale, as bench_table1_modules derives it from knobs.rows.
    const int rows = args.knobs.rows;
    const auto chipRows = static_cast<std::uint32_t>(std::max(rows, 128));
    const auto tested = static_cast<std::uint32_t>(std::max(rows / 4, 48));
    const auto victims = static_cast<std::uint32_t>(std::max(rows / 16, 12));
    const std::uint32_t controlVictims = victims / 2 + 2;

    // The workload seed moves every module's variation seed. The two
    // HiRA-incapable vendor configs come last, as a negative control.
    std::vector<ModuleInfo> modules = hiraModules(chipRows, kChipBanks);
    const std::size_t nHira = modules.size();
    for (const char *label : {"micron-like", "samsung-like"}) {
        ModuleInfo control{};
        control.label = label;
        control.config = nonHiraVendorConfig(label, chipRows, 1);
        modules.push_back(control);
    }
    for (ModuleInfo &m : modules)
        m.config.seed = hashCombine(m.config.seed, args.seed);

    // Set-up: one chip model per tested bank, so that the banks can be
    // characterized in parallel.
    Clock::time_point t0 = Clock::now();
    std::vector<ChipItem> items;
    for (std::size_t mi = 0; mi < modules.size(); ++mi) {
        const bool hiraCapable = mi < nHira;
        for (BankId b = 0; b < (hiraCapable ? kChipBanks : 1); ++b) {
            ChipItem item{mi, b, nullptr, {}, {}, {}, {}};
            {
                TraceSpan span("DramChip", "bench");
                item.chip = std::make_unique<DramChip>(modules[mi].config);
            }
            if (hiraCapable)
                item.tested = spreadRows(item.chip->config(), tested);
            item.victims = victimRows(item.chip->config(),
                                      hiraCapable ? victims : controlVictims);
            items.push_back(std::move(item));
        }
    }
    const double setup = secondsSince(t0);

    Clock::time_point t1 = Clock::now();
    parallelFor(args.knobs.threads, items.size(), [&](std::size_t i) {
        ChipItem &item = items[i];
        if (!item.tested.empty()) {
            CoverageConfig ccfg; // t1 = t2 = 3 ns
            ccfg.bank = item.bank;
            ccfg.rows = item.tested;
            ccfg.allPatterns = false;
            TraceSpan span("measureCoverage", "bench");
            item.coverage = measureCoverage(*item.chip, ccfg);
        }
        TraceSpan span("measureNormalizedNrh", "bench");
        item.nrh = measureNormalizedNrh(*item.chip, item.bank, item.victims);
    });
    const double measure = secondsSince(t1);

    // Checks and digest in item order, independent of the thread count.
    std::uint64_t pairTests = 0, testedRows = 0;
    std::vector<SampleSet> coverage(modules.size()), normalized(modules.size());
    for (const ChipItem &item : items) {
        const ModuleInfo &m = modules[item.module];
        const std::string where =
            strprintf("%s bank %u", m.label.c_str(), (unsigned)item.bank);
        const std::size_t n = item.tested.size();
        if (n > 0) {
            const CoverageResult &cov = item.coverage;
            bool ok = cov.perRow.size() == n;
            for (double c : cov.perRow)
                ok = ok && std::isfinite(c) && c >= 0.0 && c <= 1.0;
            verdict.check(ok, n, "coverage of " + where);
            pairTests += n * (n - 1);
            testedRows += n;
            digest.add(static_cast<std::uint64_t>(n));
            for (double c : cov.perRow)
                digest.add(c);
            coverage[item.module].add(cov.samples);
        }
        const NormalizedNrhResult &nrh = item.nrh;
        bool ok = nrh.normalized.size() == item.victims.size() &&
                  allFinitePositive(nrh.absoluteWithout) &&
                  allFinitePositive(nrh.absoluteWith) &&
                  allFinitePositive(nrh.normalized);
        // A chip that ignores HiRA keeps its threshold (Section 12).
        if (item.module >= nHira)
            ok = ok && std::fabs(nrh.normalized.mean() - 1.0) < 0.05;
        verdict.check(ok, item.victims.size(), "threshold of " + where);
        testedRows += item.victims.size();
        digestSamples(digest, nrh.absoluteWithout);
        digestSamples(digest, nrh.absoluteWith);
        digestSamples(digest, nrh.normalized);
        normalized[item.module].add(nrh.normalized);
    }

    // Section 4.2 headline: 51.4 % two-row refresh latency reduction.
    const double reduction = TimingParams().hiraLatencyReduction();
    verdict.check(std::fabs(100.0 * reduction - 51.4) < 0.05, 1,
                  strprintf("two-row refresh reduction %.2f %%",
                            100.0 * reduction));
    digest.add(reduction);

    JsonOut perModule;
    for (std::size_t mi = 0; mi < modules.size(); ++mi) {
        JsonOut row;
        if (mi < nHira) {
            row.num("coverage_mean", coverage[mi].mean());
            row.num("paper_coverage_mean", modules[mi].paper.covAvg);
        }
        row.num("normalized_nrh_mean", normalized[mi].mean());
        if (mi < nHira)
            row.num("paper_normalized_nrh_mean", modules[mi].paper.nrhAvg);
        perModule.raw(modules[mi].label, row.object());
    }
    JsonOut outputs;
    outputs.num("two_row_refresh_reduction", reduction);
    outputs.num("paper_two_row_refresh_reduction", 0.514);
    outputs.raw("modules", perModule.object());

    out.num("setup_s", setup);
    out.num("measure_s", measure);
    out.num("pair_tests", static_cast<double>(pairTests));
    out.num("tested_rows", static_cast<double>(testedRows));
    out.raw("outputs", outputs.object());
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    if (args.workload == "calibrate") {
        JsonOut out;
        runCalibration(args.knobs.threads, out);
        std::printf("%s\n", out.object().c_str());
        return 0;
    }
    const bool sim = args.workload != "chip_characterize";

    JsonOut out;
    out.str("workload", args.workload);
    out.num("seed", static_cast<double>(args.seed));
    out.num("nproc", std::thread::hardware_concurrency());
    out.num("threads", args.knobs.threads);
    out.str("build_type", PERFBENCH_BUILD_TYPE);
    out.str("git_rev", PERFBENCH_GIT_REV);
    out.str("metrics_level", metricsLevelName(defaultMetricsLevel()));
    out.str("knobs",
            sim ? strprintf("mixes=%d cores=%d cycles=%lld warmup=%lld",
                            args.knobs.mixes, args.knobs.cores,
                            (long long)args.knobs.cycles,
                            (long long)args.knobs.warmup)
                : strprintf("rows=%d banks=%u", args.knobs.rows, kChipBanks));

    Verdict verdict;
    Digest digest;
    if (sim)
        runSweep(args, out, verdict, digest);
    else
        runChip(args, out, verdict, digest);

    out.num("attempted", static_cast<double>(verdict.attempted));
    out.num("failed", static_cast<double>(verdict.failed));
    out.raw("failures", jsonStrings(verdict.messages));
    out.str("digest", digest.hex());
    std::printf("%s\n", out.object().c_str());
    std::fflush(stdout);
    TraceEventLog::global().flush();
    return 0;
}
