// The level-wise Apriori pass every miner runs over a trigger segment's
// objects (Theorem 3: every subset of an FCP is an FCP, so a size-(k+1)
// candidate is only tried when all its size-k subsets were frequent).
//
// The miners differ only in how a candidate's support is represented and
// computed, so the pass is written once, as a template over a support
// policy. The policy is a template parameter (no virtual call, no
// std::function on the per-candidate path), and every buffer lives in a
// reusable AprioriScratch, so a warm miner allocates only for emitted FCPs.
//
// A support policy `P` provides:
//
//   using Elem = ...;  // element type of one support (a span of Elems)
//   // Binds the trigger's probe objects (sorted, capped; at least
//   // min_pattern_size of them) and their shard ownership flags; builds the
//   // per-object supports. A supporter holding fewer than min_pattern_size
//   // of the objects supports no reported pattern, so every policy leaves
//   // it out (the trigger itself holds them all).
//   void Load(std::span<const ObjectId> objects,
//             std::span<const uint8_t> owned);
//   // Object index `oi`'s support. False when a cheap bound already proves
//   // the singleton infrequent (its support is then unused).
//   bool Singleton(uint32_t oi, std::span<const Elem>* support);
//   // Writes the support of the candidate (prefix[0..k-1], last) into
//   // `*cand`, from its join parent's support `parent`. False when a cheap
//   // bound already proves the candidate infrequent.
//   bool Extend(std::span<const Elem> parent, const uint32_t* prefix,
//               size_t k, uint32_t last, std::vector<Elem>* cand);
//   // The exact frequency test (Def. 3): the number of distinct streams
//   // among `support`'s occurrences. The trigger is one of them only while
//   // it is valid at the watermark, like any stored segment.
//   // With `out` null the count may stop once it reaches `need`; otherwise
//   // it is exact and the distinct streams are written to `*out`, sorted.
//   size_t Streams(std::span<const Elem> support, size_t need,
//                  std::vector<StreamId>* out);
//   // Appends the supporting occurrences of `support` to `*out`.
//   void Occurrences(std::span<const Elem> support,
//                    std::vector<Occurrence>* out);
//
// The driver owns everything else: the probe setup, the flat level store,
// the F_k x F_k join, the all-subsets prune, the shard-ownership gates, the
// candidate accounting and FCP emission. It asks for the stream list and the
// occurrences only for a pattern it is about to emit; every other test is
// the early-exit count.
//
// A miner may restrict the pass to the patterns holding one of a set of
// "fresh" objects (serial CooMine's new-object rule, DESIGN.md §2.1). Its
// policy then loads only the supporters holding a fresh object. The support
// of a pattern with a fresh object is still exact, and a subset's support
// still bounds its supersets', so the pass runs as before and only the
// emission is filtered. The candidates it checks are then a subset of the
// unrestricted pass's.

#ifndef FCP_CORE_APRIORI_H_
#define FCP_CORE_APRIORI_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/params.h"
#include "common/shard.h"
#include "common/types.h"
#include "core/fcp.h"
#include "core/miner.h"
#include "stream/segment.h"

namespace fcp {

/// The frequent patterns of one Apriori level, stored flat. Pattern i is the
/// k object indices idx[i*k .. i*k+k) (indices into the sorted probe
/// objects, so lexicographic order of index tuples is lexicographic order of
/// the patterns) and its support is supp[off[i] .. off[i+1]).
template <typename Elem>
struct AprioriLevel {
  std::vector<uint32_t> idx;
  std::vector<Elem> supp;
  std::vector<size_t> off;

  void Clear() {
    idx.clear();
    supp.clear();
    off.assign(1, 0);
  }
  size_t Count(size_t k) const { return idx.size() / k; }
  std::span<const Elem> Support(size_t i) const {
    return {supp.data() + off[i], off[i + 1] - off[i]};
  }
  /// Appends the pattern (prefix[0..k-1], last) — pass k = 0 for a
  /// singleton {last} — with its support.
  void Push(const uint32_t* prefix, size_t k, uint32_t last,
            std::span<const Elem> support) {
    idx.insert(idx.end(), prefix, prefix + k);
    idx.push_back(last);
    supp.insert(supp.end(), support.begin(), support.end());
    off.push_back(supp.size());
  }
};

/// True iff every size-k subset of the candidate (prefix[0..k-1], last) that
/// is not a join parent appears among the `count` lexicographically sorted
/// stride-k rows of `level`. Binary search per subset.
///
/// Sharded miners keep only patterns with an owned minimum in their store.
/// Dropping position 0 yields a subset whose minimum is prefix[1]; when
/// `owned[prefix[1]]` is 0 that subset belongs to another shard's store and
/// is skipped. This is conservative: the prune is an optimization, and the
/// support computation still rejects infrequent candidates exactly.
inline bool AllSubsetsFrequent(const uint32_t* level, size_t count, size_t k,
                               const uint32_t* prefix, uint32_t last,
                               const uint8_t* owned,
                               std::vector<uint32_t>* subset_scratch) {
  std::vector<uint32_t>& subset = *subset_scratch;
  subset.resize(k);
  // Dropping either of the last two positions gives a join parent.
  for (size_t drop = 0; drop + 2 < k + 1; ++drop) {
    if (drop == 0 && k >= 2 && !owned[prefix[1]]) continue;
    size_t w = 0;
    for (size_t i = 0; i < k; ++i) {
      if (i != drop) subset[w++] = prefix[i];
    }
    subset[w] = last;
    size_t lo = 0, hi = count;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      const uint32_t* row = level + mid * k;
      if (std::lexicographical_compare(row, row + k, subset.data(),
                                       subset.data() + k)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == count || !std::equal(subset.data(), subset.data() + k,
                                   level + lo * k)) {
      return false;
    }
  }
  return true;
}

/// Per-trigger buffers of the driver: cleared at the start of a trigger,
/// capacity kept.
template <typename Elem>
struct AprioriScratch {
  std::vector<uint8_t> owned;     ///< per-object shard ownership flag
  AprioriLevel<Elem> level;       ///< frequent patterns of size k
  AprioriLevel<Elem> next;        ///< frequent patterns of size k+1
  std::vector<Elem> cand;         ///< one candidate's support
  std::vector<uint32_t> subset;   ///< AllSubsetsFrequent scratch
  std::vector<Occurrence> occurrences;  ///< the emitted pattern's support
  std::vector<StreamId> streams;        ///< its sorted distinct streams
};

/// Mines the FCPs `trigger` completes and appends them to `out` in (size,
/// lexicographic) order, each with min_pattern_size <= size <=
/// max_pattern_size and >= theta distinct streams. A sharded miner
/// (non-singleton `shard`) emits only patterns whose minimum object it owns;
/// non-owned singletons stay join partners so owned supersets are found.
///
/// A trigger with fewer mined objects than min_pattern_size returns before
/// the policy's Load, so every miner skips it alike.
///
/// `fresh`, if not empty, flags each probe object (1 = fresh): only
/// patterns holding a fresh object are emitted, and with none flagged the
/// pass returns before the policy's Load.
///
/// Accounting: every singleton and every candidate that survives the subset
/// prune bumps candidates_checked; those that also pass the policy's cheap
/// bound bump candidates_bound_passed; every rejected one bumps
/// candidates_pruned; slcp_probes counts the probe objects of triggers with
/// an owned object and at least min_pattern_size mined objects.
template <typename Policy>
void MineApriori(const Segment& trigger, const MiningParams& params,
                 const ShardSpec& shard, Policy& policy,
                 AprioriScratch<typename Policy::Elem>* scratch,
                 MinerStats* stats, std::vector<Fcp>* out,
                 std::span<const uint8_t> fresh = {}) {
  using Elem = typename Policy::Elem;
  AprioriScratch<Elem>& s = *scratch;

  // Probe objects: the segment's distinct objects (cached at construction),
  // capped at max_segment_objects. Fewer than min_pattern_size of them form
  // no reportable pattern, so the pass stops before any support is loaded.
  const std::span<const ObjectId> objects =
      MinedObjects(trigger, params.max_segment_objects);
  if (objects.size() < params.min_pattern_size) return;
  const size_t num_objects = objects.size();

  // Shard ownership of each probe object (all true for the serial shard).
  // No owned probe object means no owned pattern can trigger here: every
  // pattern is a subset of the probe's objects.
  s.owned.resize(num_objects);
  bool any_owned = false;
  for (size_t oi = 0; oi < num_objects; ++oi) {
    s.owned[oi] = shard.Owns(objects[oi]) ? 1 : 0;
    any_owned |= s.owned[oi] != 0;
  }
  if (!any_owned) return;
  stats->slcp_probes += num_objects;
  if (!fresh.empty() &&
      std::find(fresh.begin(), fresh.end(), 1) == fresh.end()) {
    return;
  }
  policy.Load(objects, s.owned);

  // Whether the pattern (prefix[0..k-1], last) may be emitted: it holds a
  // fresh object, or no restriction applies.
  auto holds_fresh = [&](const uint32_t* prefix, size_t k, uint32_t last) {
    if (fresh.empty() || fresh[last]) return true;
    for (size_t i = 0; i < k; ++i) {
      if (fresh[prefix[i]]) return true;
    }
    return false;
  };

  // The exact frequency test (Def. 3): >= theta distinct streams. A
  // pattern that will not be emitted only needs the early-exit count.
  auto frequent = [&](std::span<const Elem> support) {
    return policy.Streams(support, params.theta, nullptr) >= params.theta;
  };

  // The same test for a pattern about to be emitted: the policy lists its
  // streams, and only then are its occurrences materialized for the window.
  // Allocation in the Fcp is output, not overhead.
  auto emit_if_frequent = [&](std::span<const Elem> support,
                              const uint32_t* prefix, size_t k,
                              uint32_t last) {
    s.streams.clear();
    if (policy.Streams(support, params.theta, &s.streams) < params.theta) {
      return false;
    }
    s.occurrences.clear();
    policy.Occurrences(support, &s.occurrences);
    Fcp fcp;
    fcp.objects.reserve(k + 1);
    for (size_t i = 0; i < k; ++i) fcp.objects.push_back(objects[prefix[i]]);
    fcp.objects.push_back(objects[last]);
    fcp.streams.assign(s.streams.begin(), s.streams.end());
    fcp.trigger = trigger.id();
    fcp.window_start = kMaxTimestamp;
    fcp.window_end = kMinTimestamp;
    for (const Occurrence& occ : s.occurrences) {
      fcp.window_start = std::min(fcp.window_start, occ.start);
      fcp.window_end = std::max(fcp.window_end, occ.end);
    }
    out->push_back(std::move(fcp));
    ++stats->fcps_emitted;
    return true;
  };

  // An owned pattern has an owned minimum object, and that object must
  // itself be a frequent singleton (supports only shrink as patterns grow).
  // So when every owned probe object is infrequent the delivery cannot emit
  // anything; skip the level build outright. Most deliveries of a sharded
  // run are owned only via unpopular objects, which fail the cheap bound
  // immediately. The serial shard skips the gate: the level-1 loop below
  // does the same work once.
  if (!shard.IsSingleton()) {
    bool any_owned_frequent = false;
    std::span<const Elem> support;
    for (uint32_t oi = 0; oi < num_objects && !any_owned_frequent; ++oi) {
      if (!s.owned[oi]) continue;
      any_owned_frequent = policy.Singleton(oi, &support) && frequent(support);
    }
    if (!any_owned_frequent) return;
  }

  // Level 1 (FCP_1). Non-owned singletons stay in the level store as join
  // partners for owned size-2 candidates; only owned ones are emitted.
  s.level.Clear();
  for (uint32_t oi = 0; oi < num_objects; ++oi) {
    ++stats->candidates_checked;
    std::span<const Elem> support;
    if (!policy.Singleton(oi, &support)) {
      ++stats->candidates_pruned;
      continue;
    }
    ++stats->candidates_bound_passed;
    const bool emitted = params.min_pattern_size <= 1 && s.owned[oi] &&
                         holds_fresh(nullptr, 0, oi);
    if (emitted ? !emit_if_frequent(support, nullptr, 0, oi)
                : !frequent(support)) {
      ++stats->candidates_pruned;
      continue;
    }
    s.level.Push(nullptr, 0, oi, support);
  }

  // Levels k -> k+1: F_k x F_k join on a shared (k-1)-prefix, subset prune,
  // then the policy extends the parent's support by the joined-in object.
  // Supports are carried level to level, so none is recomputed.
  for (size_t k = 1; !s.level.idx.empty() &&
                     (params.max_pattern_size == 0 || k < params.max_pattern_size);
       ++k) {
    const size_t count = s.level.Count(k);
    s.next.Clear();
    for (size_t i = 0; i < count; ++i) {
      const uint32_t* pi = s.level.idx.data() + i * k;
      // Size-2 candidates fix the pattern's minimum object: only extend
      // owned minima, so every pattern at level >= 2 has an owned minimum.
      if (k == 1 && !s.owned[pi[0]]) continue;
      const std::span<const Elem> parent = s.level.Support(i);
      for (size_t j = i + 1; j < count; ++j) {
        const uint32_t* pj = s.level.idx.data() + j * k;
        // Patterns sharing the first k-1 indices are contiguous in
        // lexicographic order; stop as soon as the prefix diverges.
        if (!std::equal(pi, pi + k - 1, pj)) break;
        const uint32_t last = pj[k - 1];
        if (!AllSubsetsFrequent(s.level.idx.data(), count, k, pi, last,
                                s.owned.data(), &s.subset)) {
          ++stats->candidates_pruned;
          continue;
        }
        ++stats->candidates_checked;
        if (!policy.Extend(parent, pi, k, last, &s.cand)) {
          ++stats->candidates_pruned;
          continue;
        }
        ++stats->candidates_bound_passed;
        if (k + 1 >= params.min_pattern_size && holds_fresh(pi, k, last)
                ? !emit_if_frequent(s.cand, pi, k, last)
                : !frequent(s.cand)) {
          ++stats->candidates_pruned;
          continue;
        }
        s.next.Push(pi, k, last, s.cand);
      }
    }
    std::swap(s.level, s.next);
  }
}

}  // namespace fcp

#endif  // FCP_CORE_APRIORI_H_
