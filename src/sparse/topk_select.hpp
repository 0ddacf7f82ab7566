// Top-k selection: pick the k largest-magnitude entries of a dense vector
// (Algorithm 1 lines 5-7 of the paper).
//
// Ordering is total and deterministic: larger |value| first, ties broken by
// smaller index. Determinism matters because every worker must agree on the
// global selection bit-for-bit for the replicas to stay consistent.
//
// Three strategies are provided; they return identical results and are
// compared by bench_ablation_topk_select:
//   NthElement  introselect on an index permutation, O(m) expected
//   Heap        bounded min-heap of size k, O(m log k) — wins for k << m
//   FullSort    O(m log m) reference
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/sparse_gradient.hpp"

namespace gtopk::sparse {

enum class TopkStrategy { NthElement, Heap, FullSort };

/// Comparator for the deterministic |value|-descending, index-ascending
/// total order shared by all strategies.
inline bool magnitude_less(float va, std::int32_t ia, float vb, std::int32_t ib) {
    const float ma = va < 0 ? -va : va;
    const float mb = vb < 0 ? -vb : vb;
    if (ma != mb) return ma < mb;
    return ia > ib;  // smaller index wins ties, so it is "greater"
}

/// Select min(k, nnz-meaningful) entries; exact zeros are still selectable
/// (the paper selects by threshold on |G|; we keep exact-k semantics).
/// Result is canonical (indices sorted ascending).
SparseGradient topk_select(std::span<const float> dense, std::size_t k,
                           TopkStrategy strategy = TopkStrategy::NthElement);

/// Scratch reused across selection calls: the m-entry permutation /
/// candidate buffer and the magnitude buffer that the one-shot API
/// reallocates every iteration. One workspace per worker thread; the
/// vectors grow to the largest m seen and stay there.
struct TopkWorkspace {
    std::vector<std::int32_t> perm;
    std::vector<float> mags;
    /// Whether the last topk_select_into call selected from the sampled
    /// pre-filter's candidates (false: it ran the exact pass over all m).
    bool prefiltered = false;
};

struct TopkOptions {
    TopkStrategy strategy = TopkStrategy::NthElement;
    /// Sampled-threshold pre-filter (licensed by the magnitude-distribution
    /// observations of Shi et al., arXiv:1911.08772): estimate a
    /// conservative magnitude cut from a deterministic strided sample,
    /// collect the candidates >= cut, and run the exact selection on that
    /// (much smaller) set. Whenever the candidate set cannot be proven to
    /// contain the exact top-k (fewer than k candidates), the code falls
    /// back to the full exact path — so the selected set is ALWAYS
    /// bit-identical to the exact deterministic selection (invariant 6),
    /// on or off.
    bool sampled_prefilter = true;
};

/// Dense vectors below this size skip the pre-filter (the exact pass is
/// already cheap and the sample would be too small to trust).
inline constexpr std::size_t kPrefilterMinDense = 1 << 14;

/// Workspace-reusing selection; identical results to the one-shot overload
/// for every strategy/option combination.
SparseGradient topk_select(std::span<const float> dense, std::size_t k,
                           TopkWorkspace& ws, const TopkOptions& options = {});

/// Same, writing into `out` (indices/values capacity reused across calls).
void topk_select_into(std::span<const float> dense, std::size_t k, TopkWorkspace& ws,
                      SparseGradient& out, const TopkOptions& options = {});

/// The paper's threshold formulation (Line 5-6 of Algorithm 1): returns the
/// kth largest |value| of `dense` (0 when k == 0 or the vector is empty).
float kth_largest_magnitude(std::span<const float> dense, std::size_t k);

/// Workspace-reusing variant: the magnitude scratch lives in `ws` instead
/// of being a fresh m-float allocation per call.
float kth_largest_magnitude(std::span<const float> dense, std::size_t k,
                            TopkWorkspace& ws);

/// Zero out the selected entries of `dense` in place — the residual update
/// `G ⊙ ¬Mask` (Line 8 of Algorithm 1).
void zero_selected(std::span<float> dense, const SparseGradient& selected);

}  // namespace gtopk::sparse
