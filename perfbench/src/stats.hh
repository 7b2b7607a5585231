/**
 * @file
 * The benchmark's own arithmetic: exact percentiles from per-call
 * samples, medians of repeated runs, and the residual of a traced
 * run. Kept apart from main.cc so the self-test can pin it.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstdint>
#include <vector>

namespace perfbench
{

/** Nearest-rank percentiles of exact samples. */
struct Percentiles
{
    std::uint64_t count = 0;
    double p50 = 0.0;
    double p99 = 0.0;
    /** Samples strictly above the p99 rank. */
    std::uint64_t beyondP99 = 0;
    /** Fewer than ten samples lie beyond p99: the tail is thin. */
    bool thinTail = true;
};

/** Percentiles of @p samples (reordered in place). */
Percentiles exactPercentiles(std::vector<std::uint32_t> &samples);

/** Median of @p values (copied); 0 for an empty list. */
double median(std::vector<double> values);

/**
 * Part of a traced wall time that no layer covers:
 * wall - covered, clamped at zero.
 */
std::uint64_t residualNs(std::uint64_t wallNs, std::uint64_t coveredNs);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
