#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace centaur::util {

void Accumulator::add(double x) {
  samples_.push_back(x);
  sum_ += x;
  sorted_valid_ = false;
}

double Accumulator::mean() const {
  if (samples_.empty()) return 0;
  return sum_ / static_cast<double>(samples_.size());
}

void Accumulator::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Accumulator::min() const {
  if (samples_.empty()) return 0;
  ensure_sorted();
  return sorted_.front();
}

double Accumulator::max() const {
  if (samples_.empty()) return 0;
  ensure_sorted();
  return sorted_.back();
}

double Accumulator::stddev() const {
  if (samples_.size() < 2) return 0;
  const double m = mean();
  double acc = 0;
  for (double x : samples_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(samples_.size()));
}

double Accumulator::quantile(double q) const {
  if (samples_.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  ensure_sorted();
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_[lo] * (1 - frac) + sorted_[hi] * frac;
}

Cdf::Cdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Cdf::at(double x) const {
  if (sorted_.empty()) return 0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Cdf::inverse(double q) const {
  if (sorted_.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const std::size_t idx = std::min(
      sorted_.size() - 1,
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted_.size())) -
                               (q > 0 ? 1 : 0)));
  return sorted_[idx];
}

std::vector<std::pair<double, double>> Cdf::series(std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (sorted_.empty() || points == 0) return out;
  points = std::min(points, sorted_.size());
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const std::size_t idx =
        (points == 1) ? sorted_.size() - 1
                      : i * (sorted_.size() - 1) / (points - 1);
    out.emplace_back(sorted_[idx], static_cast<double>(idx + 1) /
                                       static_cast<double>(sorted_.size()));
  }
  return out;
}

BucketHistogram::BucketHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("BucketHistogram: bounds must be sorted");
  }
}

void BucketHistogram::add(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  counts_[static_cast<std::size_t>(it - bounds_.begin())]++;
  ++total_;
}

double BucketHistogram::fraction(std::size_t bucket) const {
  if (total_ == 0) return 0;
  return static_cast<double>(count(bucket)) / static_cast<double>(total_);
}

std::string BucketHistogram::label(std::size_t bucket) const {
  if (bucket >= counts_.size()) throw std::out_of_range("bucket");
  auto fmt = [](double v) {
    // Integral bounds print without decimals.
    if (v == static_cast<double>(static_cast<long long>(v))) {
      return std::to_string(static_cast<long long>(v));
    }
    return std::to_string(v);
  };
  if (bucket == counts_.size() - 1) return "> " + fmt(bounds_.back());
  if (bucket == 0) return "<= " + fmt(bounds_[0]);
  // Appended piece by piece: GCC 12 at -O3 reports a false -Wrestrict on
  // "(" + std::string&&.
  std::string out("(");
  out += fmt(bounds_[bucket - 1]);
  out += ", ";
  out += fmt(bounds_[bucket]);
  out += ']';
  return out;
}

}  // namespace centaur::util
