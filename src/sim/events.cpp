#include "sim/events.hpp"

#include <algorithm>
#include <limits>

#include "core/error.hpp"

namespace wrsn {

namespace {

// Bucket-count bounds: the ring starts tiny and grows with occupancy, but
// never beyond a cap that bounds the memory of the empty bucket headers.
constexpr std::size_t kMinBuckets = 16;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 21;

// Day indices stay below 2^53 so (day + 1) * width is exact enough for the
// membership check; times mapping beyond that clamp and are found by the
// direct-search fallback instead.
constexpr double kMaxDay = 9007199254740992.0;  // 2^53

}  // namespace

EventQueue::EventQueue() {
  buckets_.resize(kMinBuckets);
  bucket_mask_ = kMinBuckets - 1;
}

void EventQueue::push(double time, EventKind kind, std::size_t subject,
                      std::uint64_t epoch) {
  cal_push(Event{time, next_seq_++, kind, subject, epoch});
}

const Event& EventQueue::top() const {
  cal_find_top();
  return buckets_[top_bucket_].front();
}

Event EventQueue::pop() {
  cal_find_top();
  std::vector<Event>& bucket = buckets_[top_bucket_];
  // The bucket is a binary min-heap on (time, seq); the located top is its
  // front. pop_heap keeps the chain ordered in O(log chain) so equal-time
  // batches sharing one day drain in O(B log B), not O(B^2).
  std::pop_heap(bucket.begin(), bucket.end(), Later{});
  const Event e = bucket.back();
  bucket.pop_back();
  --cal_size_;
  top_valid_ = false;
  if (buckets_.size() > kMinBuckets && cal_size_ < buckets_.size() / 2) {
    cal_resize(buckets_.size() / 2);
  }
  return e;
}

std::vector<Event> EventQueue::sorted_events() const {
  std::vector<Event> out;
  out.reserve(cal_size_);
  for_each_sorted([&out](const Event& e) { out.push_back(e); });
  return out;
}

void EventQueue::restore(const std::vector<Event>& events,
                         std::uint64_t next_seq) {
  for (const Event& e : events) {
    WRSN_REQUIRE(e.seq < next_seq, "event seq beyond restored next_seq");
  }
  // The bucket count cal_push's growth would settle on for this many
  // events, then one layout pass.
  std::size_t nbuckets = kMinBuckets;
  while (events.size() > 2 * nbuckets && nbuckets < kMaxBuckets) nbuckets *= 2;
  buckets_.assign(nbuckets, {});
  width_ = 1.0;
  cal_layout(events);
  next_seq_ = next_seq;
}

std::uint64_t EventQueue::day_of(double time) const {
  if (time <= 0.0) return 0;
  const double d = time / width_;
  if (d >= kMaxDay) return static_cast<std::uint64_t>(kMaxDay);
  return static_cast<std::uint64_t>(d);
}

void EventQueue::cal_push(const Event& e) {
  const std::uint64_t day = day_of(e.time);
  // Re-anchor backward: the scan position must never pass the earliest
  // pending event, or cal_find_top would skip its day.
  if (day < cur_day_) cur_day_ = day;
  if (top_valid_ && e.time < buckets_[top_bucket_].front().time) {
    // The newcomer beats the cached top (an equal time cannot: its seq is
    // strictly larger, so FIFO keeps the incumbent). Checked before the
    // sift-up below so the cached front is still in place.
    top_valid_ = false;
  }
  std::vector<Event>& bucket = buckets_[day & bucket_mask_];
  bucket.push_back(e);
  std::push_heap(bucket.begin(), bucket.end(), Later{});
  ++cal_size_;
  if (cal_size_ > 2 * buckets_.size() && buckets_.size() < kMaxBuckets) {
    cal_resize(buckets_.size() * 2);
  }
}

void EventQueue::cal_find_top() const {
  if (top_valid_) return;
  WRSN_DEBUG_ASSERT(cal_size_ > 0, "top/pop on an empty event queue");
  const std::size_t nbuckets = buckets_.size();
  // Invariant: every pending event's day >= cur_day_ (pushes re-anchor
  // backward, pops only move the cursor onto a day known to hold the min).
  // Scanning days upward therefore finds the global minimum in the first
  // day with a qualifying event; events from later days sharing the bucket
  // fail the day-end check and wait for their own day.
  std::uint64_t day = cur_day_;
  for (std::size_t hop = 0; hop < nbuckets; ++hop, ++day) {
    const std::vector<Event>& bucket = buckets_[day & bucket_mask_];
    if (!bucket.empty()) {
      // The bucket's heap front is its earliest event overall; events from
      // later days sharing the bucket (day + k*nbuckets) have strictly later
      // times, so if the front fails the day-end check no event of this day
      // is present and the whole chain can be skipped.
      const double day_end = static_cast<double>(day + 1) * width_;
      if (bucket.front().time < day_end) {
        cur_day_ = day;
        top_bucket_ = day & bucket_mask_;
        top_valid_ = true;
        return;
      }
    }
  }
  // A whole year of days is empty (sparse tail, or a time beyond the day
  // clamp): fall back to a direct search over the bucket fronts, each of
  // which is its chain's minimum.
  std::size_t best_bucket = nbuckets;
  for (std::size_t b = 0; b < nbuckets; ++b) {
    const std::vector<Event>& bucket = buckets_[b];
    if (bucket.empty()) continue;
    if (best_bucket == nbuckets ||
        Earlier{}(bucket.front(), buckets_[best_bucket].front())) {
      best_bucket = b;
    }
  }
  cur_day_ = day_of(buckets_[best_bucket].front().time);
  top_bucket_ = best_bucket;
  top_valid_ = true;
}

void EventQueue::cal_resize(std::size_t new_nbuckets) {
  new_nbuckets = std::clamp(new_nbuckets, kMinBuckets, kMaxBuckets);
  std::vector<Event> all;
  all.reserve(cal_size_);
  for (std::vector<Event>& bucket : buckets_) {
    all.insert(all.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  buckets_.resize(new_nbuckets);
  cal_layout(all);
}

void EventQueue::cal_layout(const std::vector<Event>& all) {
  bucket_mask_ = buckets_.size() - 1;
  cal_size_ = all.size();
  double tmin = std::numeric_limits<double>::infinity();
  double tmax = -std::numeric_limits<double>::infinity();
  for (const Event& e : all) {
    tmin = std::min(tmin, e.time);
    tmax = std::max(tmax, e.time);
  }
  // Day width from the spread of pending times: ~4 events per day on
  // average, and (with the occupancy thresholds keeping nbuckets within 4x
  // of the event count) a year of nbuckets days always spans the whole
  // pending range, so day/bucket aliasing stays rare. Equal-time batches
  // contribute zero spread; the clamp keeps the width positive, and a fully
  // degenerate all-equal queue simply keeps its previous width.
  if (!all.empty() && tmax > tmin) {
    width_ = std::max((tmax - tmin) * 4.0 / static_cast<double>(all.size()),
                      1e-9);
  }
  cur_day_ = all.empty() ? 0 : day_of(tmin);
  top_valid_ = false;
  // Count, size each bucket once, then fill: one allocation per bucket.
  std::vector<std::uint32_t> counts(buckets_.size(), 0);
  for (const Event& e : all) ++counts[day_of(e.time) & bucket_mask_];
  for (std::size_t b = 0; b < buckets_.size(); ++b) buckets_[b].reserve(counts[b]);
  for (const Event& e : all) buckets_[day_of(e.time) & bucket_mask_].push_back(e);
  for (std::vector<Event>& bucket : buckets_) {
    std::make_heap(bucket.begin(), bucket.end(), Later{});
  }
}

}  // namespace wrsn
