// Hot-path equivalence tests: the pooled-buffer / zero-copy-view /
// workspace-reusing fast paths introduced for the allocation-free hot path
// must be bit-identical to their owning counterparts, and the wire view
// must reject malformed bytes exactly like the owning deserializer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "comm/buffer_pool.hpp"
#include "comm/cluster.hpp"
#include "core/aggregators.hpp"
#include "data/sampler.hpp"
#include "data/synthetic_images.hpp"
#include "nn/model_zoo.hpp"
#include "sparse/topk_merge.hpp"
#include "sparse/topk_select.hpp"
#include "sparse/wire.hpp"
#include "train/trainer.hpp"
#include "util/rng.hpp"

namespace {

using namespace gtopk;
using sparse::SparseGradient;

std::vector<float> random_dense(std::size_t m, std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    std::vector<float> v(m);
    for (auto& x : v) x = static_cast<float>(rng.next_gaussian());
    return v;
}

SparseGradient sample_gradient(std::size_t m, std::size_t k, std::uint64_t seed) {
    return sparse::topk_select(random_dense(m, seed), k);
}

// ---------------------------------------------------------------- wire view

TEST(WireView, RoundTripMatchesOwningDeserialize) {
    const SparseGradient g = sample_gradient(4096, 100, 7);
    const auto bytes = sparse::serialize(g);
    const sparse::SparseGradientView v = sparse::deserialize_view(bytes);
    EXPECT_EQ(v.dense_size, g.dense_size);
    ASSERT_EQ(v.nnz(), g.nnz());
    EXPECT_TRUE(std::equal(v.indices.begin(), v.indices.end(), g.indices.begin()));
    EXPECT_TRUE(std::equal(v.values.begin(), v.values.end(), g.values.begin()));
    EXPECT_EQ(v.materialize(), sparse::deserialize(bytes));
}

TEST(WireView, EmptyGradientRoundTrips) {
    SparseGradient g;
    g.dense_size = 5;
    const auto bytes = sparse::serialize(g);
    const sparse::SparseGradientView v = sparse::deserialize_view(bytes);
    EXPECT_EQ(v.dense_size, 5);
    EXPECT_EQ(v.nnz(), 0u);
    EXPECT_EQ(v.materialize(), g);
    std::vector<float> dense(5, 1.0f);
    v.scatter_add(dense);  // no-op, must not touch anything
    for (float x : dense) EXPECT_EQ(x, 1.0f);
}

TEST(WireView, ScatterAddMatchesMaterializedScatter) {
    const SparseGradient g = sample_gradient(512, 40, 3);
    const auto bytes = sparse::serialize(g);
    std::vector<float> a(512, 0.5f);
    std::vector<float> b = a;
    sparse::deserialize_view(bytes).scatter_add(a);
    for (std::size_t i = 0; i < g.nnz(); ++i) {
        b[static_cast<std::size_t>(g.indices[i])] += g.values[i];
    }
    EXPECT_EQ(a, b);
}

TEST(WireView, TruncatedAndCorruptBytesThrow) {
    const SparseGradient g = sample_gradient(1024, 16, 11);
    const auto bytes = sparse::serialize(g);
    // Truncated header and truncated payload.
    EXPECT_THROW(sparse::deserialize_view({bytes.data(), 8}), std::invalid_argument);
    EXPECT_THROW(sparse::deserialize_view({bytes.data(), bytes.size() - 4}),
                 std::invalid_argument);
    // Garbage that is long enough to parse a header.
    const std::vector<std::byte> junk(24, std::byte{0xAB});
    EXPECT_THROW(sparse::deserialize_view(junk), std::invalid_argument);
    // Out-of-range index (first index -> dense_size + 1).
    std::vector<std::byte> bad = bytes;
    const std::int32_t huge = static_cast<std::int32_t>(g.dense_size) + 1;
    std::memcpy(bad.data() + 16, &huge, sizeof(huge));
    EXPECT_THROW(sparse::deserialize_view(bad), std::invalid_argument);
    // Non-increasing indices (duplicate the second index into the first).
    std::vector<std::byte> dup = bytes;
    std::memcpy(dup.data() + 16, dup.data() + 20, 4);
    EXPECT_THROW(sparse::deserialize_view(dup), std::invalid_argument);
}

TEST(WireView, MisalignedPayloadThrowsInsteadOfAliasing) {
    const SparseGradient g = sample_gradient(256, 8, 5);
    const auto bytes = sparse::serialize(g);
    std::vector<std::byte> shifted(bytes.size() + 1);
    std::memcpy(shifted.data() + 1, bytes.data(), bytes.size());
    EXPECT_THROW(
        sparse::deserialize_view({shifted.data() + 1, bytes.size()}),
        std::invalid_argument);
}

TEST(WireView, SerializeIntoReusesCapacityAndMatchesSerialize) {
    const SparseGradient big = sample_gradient(4096, 200, 1);
    const SparseGradient small = sample_gradient(4096, 10, 2);
    std::vector<std::byte> buf;
    sparse::serialize_into(big, buf);
    EXPECT_EQ(buf, sparse::serialize(big));
    const std::size_t cap = buf.capacity();
    sparse::serialize_into(small, buf);
    EXPECT_EQ(buf, sparse::serialize(small));
    EXPECT_EQ(buf.capacity(), cap);  // shrink never reallocates
    sparse::serialize_into(big, buf);
    EXPECT_EQ(buf, sparse::serialize(big));
    EXPECT_EQ(buf.capacity(), cap);  // regrow within old capacity either
}

// -------------------------------------------------------------- buffer pool

TEST(BufferPool, RecyclesReleasedBuffers) {
    comm::BufferPool pool;
    auto a = pool.acquire(100);
    EXPECT_EQ(a.size(), 100u);
    EXPECT_EQ(pool.stats().acquires, 1u);
    EXPECT_EQ(pool.stats().pool_hits, 0u);  // nothing to reuse yet
    pool.release(std::move(a));
    EXPECT_EQ(pool.free_count(), 1u);
    auto b = pool.acquire(60);  // fits in the recycled 100-byte buffer
    EXPECT_EQ(b.size(), 60u);
    EXPECT_GE(b.capacity(), 100u);
    EXPECT_EQ(pool.stats().pool_hits, 1u);
    EXPECT_EQ(pool.free_count(), 0u);
}

TEST(BufferPool, BestFitPrefersSmallestSufficientBuffer) {
    comm::BufferPool pool;
    pool.release(std::vector<std::byte>(1000));
    pool.release(std::vector<std::byte>(100));
    const auto got = pool.acquire(50);
    EXPECT_GE(got.capacity(), 100u);
    EXPECT_LT(got.capacity(), 1000u);  // took the 100-byte one
    EXPECT_EQ(pool.stats().pool_hits, 1u);
}

TEST(BufferPool, RetentionIsCapped) {
    comm::BufferPool pool;
    for (int i = 0; i < 12; ++i) {
        pool.release(std::vector<std::byte>(64));
    }
    EXPECT_LE(pool.free_count(), comm::BufferPool::kMaxFree);
    EXPECT_EQ(pool.stats().releases, 12u);
    EXPECT_EQ(pool.stats().dropped, 12u - comm::BufferPool::kMaxFree);
}

TEST(BufferPool, PooledBufferReleasesOnDestructionAndMove) {
    comm::BufferPool pool;
    {
        comm::PooledBuffer buf(pool.acquire(32), &pool);
        EXPECT_EQ(buf.size(), 32u);
        comm::PooledBuffer moved = std::move(buf);
        EXPECT_EQ(moved.size(), 32u);
        EXPECT_EQ(pool.free_count(), 0u);  // still owned by `moved`
    }
    EXPECT_EQ(pool.free_count(), 1u);  // exactly one release despite the move
    EXPECT_EQ(pool.stats().releases, 1u);
}

// ---------------------------------------------------- selection equivalence

sparse::SparseGradient exact_reference(std::span<const float> dense, std::size_t k) {
    return sparse::topk_select(dense, k);  // one-shot, no prefilter
}

void expect_prefilter_invariant(std::span<const float> dense, std::size_t k) {
    sparse::TopkWorkspace ws;
    const SparseGradient ref = exact_reference(dense, k);
    const SparseGradient off =
        sparse::topk_select(dense, k, ws, {.sampled_prefilter = false});
    const SparseGradient on =
        sparse::topk_select(dense, k, ws, {.sampled_prefilter = true});
    EXPECT_EQ(ref, off);
    EXPECT_EQ(ref, on);
}

TEST(TopkPrefilter, GaussianMatchesExact) {
    // Large enough to engage the prefilter (m >= kPrefilterMinDense) with a
    // density that keeps the sampled rank usable.
    const auto dense = random_dense(1 << 15, 21);
    expect_prefilter_invariant(dense, 128);
}

TEST(TopkPrefilter, HeavyTailMatchesExact) {
    auto dense = random_dense(1 << 15, 22);
    for (auto& v : dense) v = v * v * v;  // cube: heavy-tailed magnitudes
    expect_prefilter_invariant(dense, 128);
}

TEST(TopkPrefilter, MassiveTiesMatchExact) {
    // Quantize to very few distinct magnitudes so ties abound and the
    // index tie-break carries the ordering.
    auto dense = random_dense(1 << 15, 23);
    for (auto& v : dense) v = std::round(v * 2.0f) / 2.0f;
    expect_prefilter_invariant(dense, 128);
}

TEST(TopkPrefilter, AllZeroMatchesExact) {
    const std::vector<float> dense(1 << 15, 0.0f);
    expect_prefilter_invariant(dense, 128);
}

TEST(TopkPrefilter, OvershootingSampleFallsBackToExact) {
    // Spikes exactly on the sampling stride: the strided sample sees only
    // large magnitudes, the estimated cut overshoots, fewer than k
    // candidates survive and the code must fall back to the full exact
    // path. m = 2^15 -> sample_size = 2048, stride = 16.
    const std::size_t m = 1 << 15;
    auto dense = random_dense(m, 24);
    for (auto& v : dense) v *= 0.01f;
    for (std::size_t i = 0; i < m; i += 16) dense[i] = 10.0f;
    expect_prefilter_invariant(dense, 4096);  // k > number of spikes (2048)
}

TEST(TopkPrefilter, BelowMinSizeAndDegenerateCasesMatch) {
    const auto small = random_dense(1000, 25);  // below kPrefilterMinDense
    expect_prefilter_invariant(small, 10);
    sparse::TopkWorkspace ws;
    // k == 0 and k >= m mirror the one-shot degenerate semantics.
    EXPECT_EQ(sparse::topk_select(small, 0, ws), exact_reference(small, 0));
    EXPECT_EQ(sparse::topk_select(small, 1000, ws), exact_reference(small, 1000));
    EXPECT_EQ(sparse::topk_select(small, 5000, ws), exact_reference(small, 5000));
}

TEST(TopkPrefilter, EngagesAtThePaperDensity) {
    // The benchmark model's gradient (m = 267 274) at rho = 0.001: the
    // sample is sized from k, so the cut's rank in it stays usable and the
    // exact pass over all m indices is skipped.
    const std::size_t m = 267274;
    const std::size_t k = 267;
    const auto dense = random_dense(m, 27);
    sparse::TopkWorkspace ws;
    sparse::SparseGradient out;
    sparse::topk_select_into(dense, k, ws, out);
    EXPECT_TRUE(ws.prefiltered);
    EXPECT_EQ(out, exact_reference(dense, k));
    // Switched off, the same workspace reports the exact pass.
    sparse::topk_select_into(dense, k, ws, out, {.sampled_prefilter = false});
    EXPECT_FALSE(ws.prefiltered);
    EXPECT_EQ(out, exact_reference(dense, k));
}

TEST(TopkPrefilter, OvershootReportsTheExactPass) {
    // The stride-aligned spikes of OvershootingSampleFallsBackToExact:
    // fewer than k candidates survive the cut.
    const std::size_t m = 1 << 15;
    auto dense = random_dense(m, 24);
    for (auto& v : dense) v *= 0.01f;
    for (std::size_t i = 0; i < m; i += 16) dense[i] = 10.0f;
    sparse::TopkWorkspace ws;
    sparse::SparseGradient out;
    sparse::topk_select_into(dense, 4096, ws, out);
    EXPECT_FALSE(ws.prefiltered);
    EXPECT_EQ(out, exact_reference(dense, 4096));
}

TEST(TopkPrefilter, WorkspaceReuseAcrossDifferentSizes) {
    sparse::TopkWorkspace ws;
    sparse::SparseGradient out;
    for (const std::size_t m : {1u << 15, 1u << 10, 1u << 16}) {
        const auto dense = random_dense(m, 26 + m);
        sparse::topk_select_into(dense, m / 256, ws, out);
        EXPECT_EQ(out, exact_reference(dense, m / 256));
    }
}

TEST(TopkSelect, HeapAndFullSortDelegateUnchanged) {
    sparse::TopkWorkspace ws;
    const auto dense = random_dense(5000, 27);
    for (const auto strategy :
         {sparse::TopkStrategy::Heap, sparse::TopkStrategy::FullSort}) {
        EXPECT_EQ(sparse::topk_select(dense, 50, ws, {.strategy = strategy}),
                  sparse::topk_select(dense, 50, strategy));
    }
}

TEST(KthMagnitude, WorkspaceOverloadMatchesFresh) {
    sparse::TopkWorkspace ws;
    const auto dense = random_dense(10'000, 28);
    for (const std::size_t k : {1u, 7u, 100u, 10'000u, 20'000u}) {
        EXPECT_EQ(sparse::kth_largest_magnitude(dense, k),
                  sparse::kth_largest_magnitude(dense, k, ws));
    }
    EXPECT_EQ(sparse::kth_largest_magnitude(dense, 0, ws), 0.0f);
}

// ------------------------------------------------------- in-place ⊤ merge

void expect_merge_equivalent(const SparseGradient& a, const SparseGradient& b,
                             std::size_t k) {
    sparse::MergeScratch scratch;
    SparseGradient acc = a;
    sparse::topk_merge_into(acc, b.dense_size, b.indices, b.values, k, scratch);
    EXPECT_EQ(acc, sparse::topk_merge(a, b, k));
}

TEST(TopkMergeInto, MatchesTopkMergeOnOverlapAndDisjoint) {
    const SparseGradient a = sample_gradient(2048, 64, 31);
    const SparseGradient b = sample_gradient(2048, 64, 32);  // partial overlap
    expect_merge_equivalent(a, b, 64);
    expect_merge_equivalent(a, b, 10);   // heavy truncation
    expect_merge_equivalent(a, b, 500);  // nnz < k: pure union
    expect_merge_equivalent(a, a, 64);   // full overlap (values double)
}

TEST(TopkMergeInto, CancellationProducesIdenticalSelection) {
    // b annihilates a on the shared indices; the zero-magnitude survivors
    // must rank identically in both implementations.
    SparseGradient a = sample_gradient(1024, 32, 33);
    SparseGradient b = a;
    for (auto& v : b.values) v = -v;
    expect_merge_equivalent(a, b, 32);
    expect_merge_equivalent(a, b, 8);
}

TEST(TopkMergeInto, EmptySidesAndScratchReuse) {
    sparse::MergeScratch scratch;
    SparseGradient empty;
    empty.dense_size = 1024;
    const SparseGradient g = sample_gradient(1024, 16, 34);
    SparseGradient acc = empty;
    sparse::topk_merge_into(acc, g.dense_size, g.indices, g.values, 16, scratch);
    EXPECT_EQ(acc, g);
    // Reuse the same scratch with the operands swapped.
    acc = g;
    sparse::topk_merge_into(acc, empty.dense_size, empty.indices, empty.values, 16,
                            scratch);
    EXPECT_EQ(acc, g);
}

TEST(TopkMergeInto, DenseSizeMismatchThrows) {
    sparse::MergeScratch scratch;
    SparseGradient acc;
    acc.dense_size = 100;
    const SparseGradient g = sample_gradient(200, 8, 35);
    EXPECT_THROW(
        sparse::topk_merge_into(acc, g.dense_size, g.indices, g.values, 8, scratch),
        std::invalid_argument);
}

// -------------------------------------------- pooled aggregation end-to-end

TEST(PooledGtopk, BitIdenticalToOwningPath) {
    for (const int world : {5, 8}) {  // 5 exercises the non-power-of-two fold
        std::vector<SparseGradient> pooled_out(static_cast<std::size_t>(world));
        std::vector<SparseGradient> owning_out(static_cast<std::size_t>(world));
        for (const bool pooled : {false, true}) {
            auto& out = pooled ? pooled_out : owning_out;
            comm::Cluster::run(
                world, comm::NetworkModel::free(), [&](comm::Communicator& comm) {
                    const SparseGradient local = sample_gradient(
                        4096, 128, 40 + static_cast<std::uint64_t>(comm.rank()));
                    core::GtopkWorkspace ws;
                    core::GtopkOptions options;
                    options.pooled = pooled;
                    if (pooled) options.workspace = &ws;
                    for (int round = 0; round < 3; ++round) {
                        const auto r =
                            core::gtopk_allreduce(comm, local, 128, options);
                        if (round == 0) {
                            out[static_cast<std::size_t>(comm.rank())] = r.global;
                        } else {
                            ASSERT_EQ(r.global,
                                      out[static_cast<std::size_t>(comm.rank())]);
                        }
                    }
                });
        }
        EXPECT_EQ(pooled_out, owning_out) << "world=" << world;
        for (int r = 1; r < world; ++r) {
            EXPECT_EQ(pooled_out[static_cast<std::size_t>(r)], pooled_out[0]);
        }
    }
}

TEST(PooledGtopk, TopkAllreduceViewPathMatchesDenseSum) {
    // The AllGather path now scatters straight off zero-copy views of the
    // gathered blocks; the result must equal the locally-computed dense sum
    // of every rank's contribution.
    const int world = 4;
    std::vector<SparseGradient> locals;
    for (int r = 0; r < world; ++r) {
        locals.push_back(
            sample_gradient(1024, 32, 60 + static_cast<std::uint64_t>(r)));
    }
    std::vector<float> expect(1024, 0.0f);
    for (const auto& g : locals) {
        for (std::size_t i = 0; i < g.nnz(); ++i) {
            expect[static_cast<std::size_t>(g.indices[i])] += g.values[i];
        }
    }
    comm::Cluster::run(world, comm::NetworkModel::free(),
                       [&](comm::Communicator& comm) {
                           const auto dense = core::topk_allreduce(
                               comm, locals[static_cast<std::size_t>(comm.rank())]);
                           ASSERT_EQ(dense, expect);
                       });
}

// ------------------------------------------------- trainer determinism

TEST(TrainerDeterminism, PrefilterOnAndOffAreBitIdentical) {
    // A model big enough to engage the prefilter on the flat gradient
    // (num_params >= kPrefilterMinDense); the trajectories with the sampled
    // prefilter enabled and disabled must agree on every bit.
    data::SyntheticImageDataset::Config dcfg;
    dcfg.image_size = 8;
    data::SyntheticImageDataset dataset(dcfg, 1234);
    data::ShardedSampler sampler(4096, 1024, 4, 99);
    nn::MlpConfig mcfg;
    mcfg.input_dim = dataset.feature_dim();
    mcfg.hidden_dims = {256};
    mcfg.classes = 10;

    train::TrainConfig config;
    config.algorithm = train::Algorithm::GtopkSsgd;
    config.epochs = 2;
    config.iters_per_epoch = 10;
    config.density = 0.01;

    auto run_with = [&](bool prefilter) {
        train::TrainConfig c = config;
        c.topk_sampled_prefilter = prefilter;
        return train::train_distributed(
            4, comm::NetworkModel::free(), c,
            [&](std::uint64_t seed) { return nn::make_mlp(mcfg, seed); },
            [&](std::int64_t step, int rank) {
                return dataset.batch_flat(sampler.batch_indices(step, rank, 16));
            },
            {});
    };

    const auto with = run_with(true);
    const auto without = run_with(false);
    ASSERT_GE(with.final_params.size(), sparse::kPrefilterMinDense);
    EXPECT_EQ(with.final_params, without.final_params);
    EXPECT_EQ(with.epochs.back().train_loss, without.epochs.back().train_loss);
}

}  // namespace
