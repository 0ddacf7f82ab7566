#include "sparse/topk_select.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <vector>

namespace gtopk::sparse {

namespace {

SparseGradient finalize(std::span<const float> dense,
                        std::vector<std::int32_t> picked) {
    std::sort(picked.begin(), picked.end());
    SparseGradient g;
    g.dense_size = static_cast<std::int64_t>(dense.size());
    g.indices = std::move(picked);
    g.values.reserve(g.indices.size());
    for (std::int32_t idx : g.indices) {
        g.values.push_back(dense[static_cast<std::size_t>(idx)]);
    }
    return g;
}

SparseGradient topk_nth_element(std::span<const float> dense, std::size_t k) {
    std::vector<std::int32_t> idx(dense.size());
    std::iota(idx.begin(), idx.end(), 0);
    auto greater = [&](std::int32_t a, std::int32_t b) {
        // "a before b" when a is strictly greater in the magnitude order.
        return magnitude_less(dense[static_cast<std::size_t>(b)], b,
                              dense[static_cast<std::size_t>(a)], a);
    };
    std::nth_element(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     idx.end(), greater);
    idx.resize(k);
    return finalize(dense, std::move(idx));
}

SparseGradient topk_heap(std::span<const float> dense, std::size_t k) {
    // Min-heap of the current best k, keyed by the magnitude order, so the
    // weakest kept element sits on top and is evicted first.
    auto weaker = [&](std::int32_t a, std::int32_t b) {
        return magnitude_less(dense[static_cast<std::size_t>(b)], b,
                              dense[static_cast<std::size_t>(a)], a);
    };
    std::priority_queue<std::int32_t, std::vector<std::int32_t>, decltype(weaker)> heap(
        weaker);
    for (std::size_t i = 0; i < dense.size(); ++i) {
        const auto idx = static_cast<std::int32_t>(i);
        if (heap.size() < k) {
            heap.push(idx);
        } else if (magnitude_less(dense[static_cast<std::size_t>(heap.top())], heap.top(),
                                  dense[i], idx)) {
            heap.pop();
            heap.push(idx);
        }
    }
    std::vector<std::int32_t> picked;
    picked.reserve(heap.size());
    while (!heap.empty()) {
        picked.push_back(heap.top());
        heap.pop();
    }
    return finalize(dense, std::move(picked));
}

SparseGradient topk_full_sort(std::span<const float> dense, std::size_t k) {
    std::vector<std::int32_t> idx(dense.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(), [&](std::int32_t a, std::int32_t b) {
        return magnitude_less(dense[static_cast<std::size_t>(b)], b,
                              dense[static_cast<std::size_t>(a)], a);
    });
    idx.resize(k);
    return finalize(dense, std::move(idx));
}

/// Fill `out` from the picked index positions `picked` (sorted in place).
void finalize_into(std::span<const float> dense, std::span<std::int32_t> picked,
                   SparseGradient& out) {
    std::sort(picked.begin(), picked.end());
    out.dense_size = static_cast<std::int64_t>(dense.size());
    out.indices.assign(picked.begin(), picked.end());
    out.values.clear();
    out.values.reserve(picked.size());
    for (std::int32_t idx : picked) {
        out.values.push_back(dense[static_cast<std::size_t>(idx)]);
    }
}

/// Deterministic strided-sample estimate of a magnitude cut that aims at
/// ~2k survivors (conservative: undershooting the true kth magnitude only
/// costs candidates, overshooting triggers the exact fallback). Returns a
/// non-positive cut when the estimate cannot be trusted.
float sampled_magnitude_cut(std::span<const float> dense, std::size_t k,
                            std::vector<float>& mags) {
    const std::size_t m = dense.size();
    // Sized from k as well as m, so the cut's rank in the sample stays near
    // 32 even at the paper's densities (rho = 0.001 and below).
    const std::size_t sample_size =
        std::min(m, std::max({std::size_t{2048}, m / 128, 16 * m / k}));
    const double density = static_cast<double>(k) / static_cast<double>(m);
    auto rank = static_cast<std::size_t>(
        std::llround(2.0 * density * static_cast<double>(sample_size)));
    if (rank < 8) return -1.0f;  // too far into the tail of the sample
    rank = std::min(rank, sample_size);
    const std::size_t step = m / sample_size;
    mags.clear();
    mags.reserve(sample_size);
    for (std::size_t i = 0, j = 0; j < sample_size; i += step, ++j) {
        mags.push_back(std::abs(dense[i]));
    }
    std::nth_element(mags.begin(), mags.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     mags.end(), std::greater<float>());
    return mags[rank - 1];
}

}  // namespace

SparseGradient topk_select(std::span<const float> dense, std::size_t k,
                           TopkStrategy strategy) {
    if (k >= dense.size()) {
        // Degenerate: keep everything.
        SparseGradient g;
        g.dense_size = static_cast<std::int64_t>(dense.size());
        g.indices.resize(dense.size());
        std::iota(g.indices.begin(), g.indices.end(), 0);
        g.values.assign(dense.begin(), dense.end());
        return g;
    }
    if (k == 0) {
        SparseGradient g;
        g.dense_size = static_cast<std::int64_t>(dense.size());
        return g;
    }
    switch (strategy) {
        case TopkStrategy::NthElement: return topk_nth_element(dense, k);
        case TopkStrategy::Heap: return topk_heap(dense, k);
        case TopkStrategy::FullSort: return topk_full_sort(dense, k);
    }
    throw std::logic_error("unknown TopkStrategy");
}

void topk_select_into(std::span<const float> dense, std::size_t k, TopkWorkspace& ws,
                      SparseGradient& out, const TopkOptions& options) {
    ws.prefiltered = false;
    if (k >= dense.size()) {
        // Degenerate: keep everything.
        out.dense_size = static_cast<std::int64_t>(dense.size());
        out.indices.resize(dense.size());
        std::iota(out.indices.begin(), out.indices.end(), 0);
        out.values.assign(dense.begin(), dense.end());
        return;
    }
    if (k == 0) {
        out = SparseGradient{};
        out.dense_size = static_cast<std::int64_t>(dense.size());
        return;
    }
    if (options.strategy != TopkStrategy::NthElement) {
        // Heap / FullSort exist for the ablation benches; they keep their
        // one-shot implementations.
        out = topk_select(dense, k, options.strategy);
        return;
    }

    auto greater = [&](std::int32_t a, std::int32_t b) {
        return magnitude_less(dense[static_cast<std::size_t>(b)], b,
                              dense[static_cast<std::size_t>(a)], a);
    };

    if (options.sampled_prefilter && dense.size() >= kPrefilterMinDense &&
        k * 8 <= dense.size()) {
        const float cut = sampled_magnitude_cut(dense, k, ws.mags);
        if (cut > 0.0f) {
            ws.perm.clear();
            for (std::size_t i = 0; i < dense.size(); ++i) {
                const float v = dense[i];
                if ((v < 0 ? -v : v) >= cut) {
                    ws.perm.push_back(static_cast<std::int32_t>(i));
                }
            }
            // >= k candidates proves cut <= kth-largest magnitude, hence the
            // exact top-k set is contained in the candidates and selecting
            // from them under the same total order is exact. Fewer: the
            // estimate overshot; fall through to the full path.
            if (ws.perm.size() >= k) {
                std::nth_element(ws.perm.begin(),
                                 ws.perm.begin() + static_cast<std::ptrdiff_t>(k - 1),
                                 ws.perm.end(), greater);
                finalize_into(dense, std::span<std::int32_t>(ws.perm.data(), k), out);
                ws.prefiltered = true;
                return;
            }
        }
    }

    ws.perm.resize(dense.size());
    std::iota(ws.perm.begin(), ws.perm.end(), 0);
    std::nth_element(ws.perm.begin(), ws.perm.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     ws.perm.end(), greater);
    finalize_into(dense, std::span<std::int32_t>(ws.perm.data(), k), out);
}

SparseGradient topk_select(std::span<const float> dense, std::size_t k,
                           TopkWorkspace& ws, const TopkOptions& options) {
    SparseGradient out;
    topk_select_into(dense, k, ws, out, options);
    return out;
}

float kth_largest_magnitude(std::span<const float> dense, std::size_t k) {
    if (k == 0 || dense.empty()) return 0.0f;
    k = std::min(k, dense.size());
    std::vector<float> mags(dense.size());
    for (std::size_t i = 0; i < dense.size(); ++i) mags[i] = std::abs(dense[i]);
    std::nth_element(mags.begin(), mags.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     mags.end(), std::greater<float>());
    return mags[k - 1];
}

float kth_largest_magnitude(std::span<const float> dense, std::size_t k,
                            TopkWorkspace& ws) {
    if (k == 0 || dense.empty()) return 0.0f;
    k = std::min(k, dense.size());
    ws.mags.resize(dense.size());
    for (std::size_t i = 0; i < dense.size(); ++i) ws.mags[i] = std::abs(dense[i]);
    std::nth_element(ws.mags.begin(),
                     ws.mags.begin() + static_cast<std::ptrdiff_t>(k - 1), ws.mags.end(),
                     std::greater<float>());
    return ws.mags[k - 1];
}

void zero_selected(std::span<float> dense, const SparseGradient& selected) {
    for (std::int32_t idx : selected.indices) {
        dense[static_cast<std::size_t>(idx)] = 0.0f;
    }
}

}  // namespace gtopk::sparse
