#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double clamped = std::clamp(p, 0.0, 100.0);
    const double rank = clamped / 100.0 * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
    return percentile(std::move(samples), 50.0);
}

double mean(const std::vector<double>& samples) {
    if (samples.empty()) return 0.0;
    double sum = 0.0;
    for (const double v : samples) sum += v;
    return sum / static_cast<double>(samples.size());
}

std::size_t countAbove(const std::vector<double>& samples, double value) {
    return static_cast<std::size_t>(
        std::count_if(samples.begin(), samples.end(),
                      [value](double v) { return v > value; }));
}

Summary summarize(const std::vector<double>& samples) {
    Summary s;
    s.count = samples.size();
    if (samples.empty()) return s;
    s.mean = mean(samples);
    s.p50 = percentile(samples, 50.0);
    s.p95 = percentile(samples, 95.0);
    s.max = *std::max_element(samples.begin(), samples.end());
    s.aboveP95 = countAbove(samples, s.p95);
    return s;
}

double jainIndex(const std::vector<double>& shares) {
    double sum = 0.0, sumSq = 0.0;
    for (const double x : shares) {
        sum += x;
        sumSq += x * x;
    }
    const double denom = static_cast<double>(shares.size()) * sumSq;
    return denom > 0.0 ? sum * sum / denom : 1.0;
}

double unionLength(std::vector<Interval> intervals) {
    std::erase_if(intervals, [](const Interval& i) { return !(i.end > i.start); });
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) { return a.start < b.start; });
    double total = 0.0;
    bool open = false;
    Interval cur;
    for (const Interval& i : intervals) {
        if (open && i.start <= cur.end) {
            cur.end = std::max(cur.end, i.end);
            continue;
        }
        if (open) total += cur.end - cur.start;
        cur = i;
        open = true;
    }
    if (open) total += cur.end - cur.start;
    return total;
}

double selfTime(Interval parent, const std::vector<Interval>& children) {
    if (!(parent.end > parent.start)) return 0.0;
    std::vector<Interval> clipped;
    clipped.reserve(children.size());
    for (const Interval& c : children)
        clipped.push_back({std::max(c.start, parent.start), std::min(c.end, parent.end)});
    return (parent.end - parent.start) - unionLength(std::move(clipped));
}

void Fnv1a::add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
        hash_ ^= (value >> (8 * i)) & 0xffU;
        hash_ *= 0x100000001b3ULL;
    }
}

std::string Fnv1a::hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
}

}  // namespace perfbench
