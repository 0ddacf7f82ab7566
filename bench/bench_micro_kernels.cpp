// google-benchmark microbenches for the hot kernels: top-k selection
// strategies, the ⊤ merge, wire (de)serialization, host-side costs of the
// aggregation algorithms on a small cluster, and the Linear layer's
// forward/backward.
#include <benchmark/benchmark.h>

#include "comm/cluster.hpp"
#include "comm/fault_transport.hpp"
#include "core/aggregators.hpp"
#include "nn/linear.hpp"
#include "sparse/selection_policy.hpp"
#include "sparse/topk_merge.hpp"
#include "sparse/topk_select.hpp"
#include "sparse/wire.hpp"
#include "util/rng.hpp"

namespace {

using namespace gtopk;

std::vector<float> random_dense(std::size_t m, std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    std::vector<float> v(m);
    for (auto& x : v) x = static_cast<float>(rng.next_gaussian());
    return v;
}

void BM_TopkSelect(benchmark::State& state, sparse::TopkStrategy strategy) {
    const auto m = static_cast<std::size_t>(state.range(0));
    const std::size_t k = std::max<std::size_t>(1, m / 1000);
    const auto dense = random_dense(m, 1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sparse::topk_select(dense, k, strategy));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(m));
}
BENCHMARK_CAPTURE(BM_TopkSelect, nth_element, sparse::TopkStrategy::NthElement)
    ->Arg(100'000)
    ->Arg(1'000'000);
BENCHMARK_CAPTURE(BM_TopkSelect, heap, sparse::TopkStrategy::Heap)
    ->Arg(100'000)
    ->Arg(1'000'000);
BENCHMARK_CAPTURE(BM_TopkSelect, full_sort, sparse::TopkStrategy::FullSort)
    ->Arg(100'000)
    ->Arg(1'000'000);

void BM_TopkSelectWorkspace(benchmark::State& state, bool prefilter) {
    // Workspace-reusing selection (identical results to BM_TopkSelect /
    // nth_element), with and without the sampled-threshold pre-filter.
    const auto m = static_cast<std::size_t>(state.range(0));
    const std::size_t k = std::max<std::size_t>(1, m / 1000);
    const auto dense = random_dense(m, 1);
    sparse::TopkWorkspace ws;
    sparse::SparseGradient out;
    const sparse::TopkOptions options{.sampled_prefilter = prefilter};
    for (auto _ : state) {
        sparse::topk_select_into(dense, k, ws, out, options);
        benchmark::DoNotOptimize(out.indices.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(m));
}
BENCHMARK_CAPTURE(BM_TopkSelectWorkspace, exact, false)
    ->Arg(100'000)
    ->Arg(1'000'000);
BENCHMARK_CAPTURE(BM_TopkSelectWorkspace, prefilter, true)
    ->Arg(100'000)
    ->Arg(1'000'000);

void BM_SampledTopkSelect(benchmark::State& state) {
    // The DGC-style sampling estimate — compare against BM_TopkSelect to
    // see the practical answer to the paper's Sec. IV-E complaint that
    // exact selection is expensive.
    const auto m = static_cast<std::size_t>(state.range(0));
    const std::size_t k = std::max<std::size_t>(1, m / 1000);
    const auto dense = random_dense(m, 1);
    gtopk::util::Xoshiro256 rng(5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(gtopk::sparse::sampled_topk_select(dense, k, rng));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(m));
}
BENCHMARK(BM_SampledTopkSelect)->Arg(100'000)->Arg(1'000'000);

void BM_TopkMerge(benchmark::State& state) {
    const auto k = static_cast<std::size_t>(state.range(0));
    const auto a = sparse::topk_select(random_dense(100 * k, 2), k);
    const auto b = sparse::topk_select(random_dense(100 * k, 3), k);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sparse::topk_merge(a, b, k));
    }
}
BENCHMARK(BM_TopkMerge)->Arg(1000)->Arg(25'000);

void BM_WireRoundTrip(benchmark::State& state) {
    const auto k = static_cast<std::size_t>(state.range(0));
    const auto g = sparse::topk_select(random_dense(100 * k, 4), k);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sparse::deserialize(sparse::serialize(g)));
    }
}
BENCHMARK(BM_WireRoundTrip)->Arg(1000)->Arg(25'000);

void BM_TopkMergeInto(benchmark::State& state) {
    // In-place ⊤ merge with reused scratch — compare against BM_TopkMerge's
    // allocate-add-reselect chain.
    const auto k = static_cast<std::size_t>(state.range(0));
    const auto a = sparse::topk_select(random_dense(100 * k, 2), k);
    const auto b = sparse::topk_select(random_dense(100 * k, 3), k);
    sparse::MergeScratch scratch;
    sparse::SparseGradient acc;
    for (auto _ : state) {
        acc = a;
        sparse::topk_merge_into(acc, b.dense_size, b.indices, b.values, k, scratch);
        benchmark::DoNotOptimize(acc.indices.data());
    }
}
BENCHMARK(BM_TopkMergeInto)->Arg(1000)->Arg(25'000);

void BM_WireRoundTripPooled(benchmark::State& state) {
    // serialize_into a reused buffer + zero-copy view — compare against
    // BM_WireRoundTrip's owning serialize/deserialize pair.
    const auto k = static_cast<std::size_t>(state.range(0));
    const auto g = sparse::topk_select(random_dense(100 * k, 4), k);
    std::vector<std::byte> buf;
    for (auto _ : state) {
        sparse::serialize_into(g, buf);
        const sparse::SparseGradientView v = sparse::deserialize_view(buf);
        benchmark::DoNotOptimize(v.values.data());
    }
}
BENCHMARK(BM_WireRoundTripPooled)->Arg(1000)->Arg(25'000);

void BM_GtopkAllreduceHostCost(benchmark::State& state) {
    // Host-side (wall clock) cost of the full tree aggregation on a small
    // in-process cluster — measures our implementation overhead, not the
    // modeled network.
    const int world = static_cast<int>(state.range(0));
    const std::size_t k = 1000;
    for (auto _ : state) {
        comm::Cluster::run(world, comm::NetworkModel::free(),
                           [&](comm::Communicator& comm) {
                               const auto local = sparse::topk_select(
                                   random_dense(50'000, static_cast<std::uint64_t>(
                                                            comm.rank() + 10)),
                                   k);
                               benchmark::DoNotOptimize(
                                   core::gtopk_allreduce(comm, local, k));
                           });
    }
}
BENCHMARK(BM_GtopkAllreduceHostCost)->Arg(2)->Arg(4)->Arg(8);

void BM_GtopkAllreduceFaultTransport(benchmark::State& state) {
    // Same aggregation as BM_GtopkAllreduceHostCost but through a
    // FaultInjectingTransport with an EMPTY plan: the delta against the
    // plain run is the decorator's pure passthrough overhead (per-message
    // rule scan + counters), which must stay negligible so chaos tests run
    // at test-suite speed.
    const int world = static_cast<int>(state.range(0));
    const std::size_t k = 1000;
    for (auto _ : state) {
        comm::FaultInjectingTransport transport(world, comm::FaultPlan{});
        comm::Cluster::run_on(transport, comm::NetworkModel::free(),
                              [&](comm::Communicator& comm) {
                                  const auto local = sparse::topk_select(
                                      random_dense(50'000,
                                                   static_cast<std::uint64_t>(
                                                       comm.rank() + 10)),
                                      k);
                                  benchmark::DoNotOptimize(
                                      core::gtopk_allreduce(comm, local, k));
                              });
    }
}
BENCHMARK(BM_GtopkAllreduceFaultTransport)->Arg(2)->Arg(4)->Arg(8);

void BM_RingAllreduceHostCost(benchmark::State& state) {
    const int world = static_cast<int>(state.range(0));
    for (auto _ : state) {
        comm::Cluster::run(world, comm::NetworkModel::free(),
                           [&](comm::Communicator& comm) {
                               auto data = random_dense(
                                   50'000, static_cast<std::uint64_t>(comm.rank()));
                               collectives::allreduce_sum_ring(comm, data);
                               benchmark::DoNotOptimize(data.data());
                           });
    }
}
BENCHMARK(BM_RingAllreduceHostCost)->Arg(2)->Arg(4)->Arg(8);

void BM_LinearFwdBwd(benchmark::State& state) {
    // One training pass through a Linear layer: forward on a [batch, in]
    // input, then backward (accumulating dW, db and returning dx).
    const std::int64_t in = state.range(0);
    const std::int64_t out = state.range(1);
    const std::int64_t batch = state.range(2);
    util::Xoshiro256 rng(6);
    nn::Linear lin(in, out, rng);
    const nn::Tensor x({batch, in}, random_dense(static_cast<std::size_t>(batch * in), 7));
    const nn::Tensor dy({batch, out}, random_dense(static_cast<std::size_t>(batch * out), 8));
    for (auto _ : state) {
        benchmark::DoNotOptimize(lin.forward(x, true).raw());
        benchmark::DoNotOptimize(lin.backward(dy).raw());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * batch * in * out);
}
// The perfbench MLP's layers (768-320-64-10, batch 8), then a wider layer
// at a larger batch.
BENCHMARK(BM_LinearFwdBwd)
    ->Args({768, 320, 8})
    ->Args({320, 64, 8})
    ->Args({64, 10, 8})
    ->Args({768, 512, 32});

}  // namespace
