// Exact order statistics and span arithmetic over raw samples.
//
// The benchmark keeps every sample of a run and computes its figures
// here rather than through the library's telemetry histograms, so the
// reported numbers do not change when the library's histogram
// implementation does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Percentile by linear interpolation between the closest ranks (the
// "linear" method of numpy and of Python's statistics.quantiles with
// method="inclusive"); p in [0, 100]. Returns 0 for no samples.
double percentile(std::vector<double> samples, double p);

double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

// Number of samples strictly greater than 'value'.
std::size_t countAbove(const std::vector<double>& samples, double value);

struct Summary {
    std::size_t count{0};
    double mean{0.0};
    double p50{0.0};
    double p95{0.0};
    double max{0.0};
    // Samples strictly above p95: a p95 needs at least ten of them to
    // say anything about the tail.
    std::size_t aboveP95{0};
};
Summary summarize(const std::vector<double>& samples);

// Jain's fairness index (sum x)^2 / (n * sum x^2): 1 when every share
// is equal, 1/n when one participant gets everything; 1 for no shares
// or all-zero shares.
double jainIndex(const std::vector<double>& shares);

// Half-open time interval [start, end) in milliseconds.
struct Interval {
    double start{0.0};
    double end{0.0};
};

// Total length of the union of 'intervals' (overlaps counted once;
// empty or inverted intervals contribute nothing).
double unionLength(std::vector<Interval> intervals);

// Self time of 'parent': its length minus the part of it covered by the
// union of 'children' (children are clipped to the parent first).
double selfTime(Interval parent, const std::vector<Interval>& children);

// 64-bit FNV-1a, fed field by field, for run digests.
class Fnv1a {
public:
    void add(std::uint64_t value);
    std::uint64_t value() const { return hash_; }
    std::string hex() const;

private:
    std::uint64_t hash_{0xcbf29ce484222325ULL};
};

}  // namespace perfbench
