#include "stats.hh"

#include <algorithm>

namespace perfbench
{

Percentiles
exactPercentiles(std::vector<std::uint32_t> &samples)
{
    Percentiles out;
    out.count = samples.size();
    if (samples.empty())
        return out;
    // Nearest rank: the k-th smallest with k = ceil(pct * n / 100).
    auto rank = [&](std::size_t pct) {
        const std::size_t k = (pct * samples.size() + 99) / 100;
        return std::max<std::size_t>(k, 1) - 1;
    };
    const std::size_t r50 = rank(50);
    const std::size_t r99 = rank(99);
    std::nth_element(samples.begin(), samples.begin() + r99,
                     samples.end());
    out.p99 = samples[r99];
    std::nth_element(samples.begin(), samples.begin() + r50,
                     samples.begin() + r99);
    out.p50 = samples[r50];
    out.beyondP99 = samples.size() - 1 - r99;
    out.thinTail = out.beyondP99 < 10;
    return out;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t
residualNs(std::uint64_t wallNs, std::uint64_t coveredNs)
{
    return wallNs > coveredNs ? wallNs - coveredNs : 0;
}

} // namespace perfbench
