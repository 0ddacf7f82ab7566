// Forward-semantics tests for the nn substrate (shapes, known values,
// mode behavior). Gradient correctness lives in nn_gradcheck_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>

#include "nn/activations.hpp"
#include "nn/classifier_model.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/model_zoo.hpp"
#include "nn/pool2d.hpp"
#include "nn/residual.hpp"
#include "nn/sequential.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace {

using namespace gtopk::nn;
using gtopk::util::Xoshiro256;

TEST(TensorTest, ShapeAndNumel) {
    Tensor t({2, 3, 4});
    EXPECT_EQ(t.numel(), 24);
    EXPECT_EQ(t.rank(), 3u);
    EXPECT_EQ(t.dim(1), 3);
    for (auto v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(TensorTest, ReshapePreservesData) {
    Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor r = t.reshaped({3, 2});
    EXPECT_EQ(r.at2(2, 1), 6.0f);
    EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(TensorTest, RejectsMismatchedData) {
    EXPECT_THROW(Tensor({2, 2}, {1.0f}), std::invalid_argument);
    EXPECT_THROW(Tensor({-1}), std::invalid_argument);
}

TEST(TensorTest, IndexedAccess) {
    Tensor t({2, 2});
    t.at2(1, 0) = 5.0f;
    EXPECT_EQ(t[2], 5.0f);
    Tensor u({1, 2, 2, 2});
    u.at4(0, 1, 1, 1) = 3.0f;
    EXPECT_EQ(u[7], 3.0f);
}

TEST(LinearTest, ComputesAffineMap) {
    Xoshiro256 rng(1);
    Linear lin(2, 3, rng);
    std::vector<ParamView> params;
    lin.collect_params(params);
    ASSERT_EQ(params.size(), 2u);
    // Overwrite with known weights: W = [[1,2],[3,4],[5,6]], b = [.1,.2,.3]
    *params[0].value = {1, 2, 3, 4, 5, 6};
    *params[1].value = {0.1f, 0.2f, 0.3f};
    Tensor x({1, 2}, {10, 20});
    Tensor y = lin.forward(x, false);
    EXPECT_FLOAT_EQ(y.at2(0, 0), 50.1f);
    EXPECT_FLOAT_EQ(y.at2(0, 1), 110.2f);
    EXPECT_FLOAT_EQ(y.at2(0, 2), 170.3f);
}

TEST(LinearTest, RejectsWrongInputShape) {
    Xoshiro256 rng(1);
    Linear lin(4, 2, rng);
    Tensor bad({1, 3});
    EXPECT_THROW(lin.forward(bad, false), std::invalid_argument);
}

// The straightforward Linear loops (sample outermost, one serial sum per
// output), kept here as the oracle the blocked kernels in src/nn/linear.cpp
// must match bit for bit.
Tensor reference_linear_forward(const std::vector<float>& w, const std::vector<float>& b,
                                 const Tensor& x, std::int64_t in, std::int64_t out) {
    const std::int64_t n = x.dim(0);
    Tensor y({n, out});
    for (std::int64_t i = 0; i < n; ++i) {
        const float* xi = x.raw() + i * in;
        float* yi = y.raw() + i * out;
        for (std::int64_t o = 0; o < out; ++o) {
            const float* wo = w.data() + o * in;
            float acc = b[static_cast<std::size_t>(o)];
            for (std::int64_t k = 0; k < in; ++k) acc += xi[k] * wo[k];
            yi[o] = acc;
        }
    }
    return y;
}

Tensor reference_linear_backward(const std::vector<float>& w, const Tensor& x,
                                  const Tensor& dy, std::int64_t in, std::int64_t out,
                                  std::vector<float>& dw, std::vector<float>& db) {
    const std::int64_t n = dy.dim(0);
    Tensor dx({n, in});
    for (std::int64_t i = 0; i < n; ++i) {
        const float* xi = x.raw() + i * in;
        const float* dyi = dy.raw() + i * out;
        float* dxi = dx.raw() + i * in;
        for (std::int64_t o = 0; o < out; ++o) {
            const float g = dyi[o];
            db[static_cast<std::size_t>(o)] += g;
            float* dwo = dw.data() + o * in;
            const float* wo = w.data() + o * in;
            for (std::int64_t k = 0; k < in; ++k) {
                dwo[k] += g * xi[k];
                dxi[k] += g * wo[k];
            }
        }
    }
    return dx;
}

bool bitwise_equal(std::span<const float> a, std::span<const float> b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

// Gaussian entries with every fifth one zero and every seventh -0.0f, so a
// kernel that starts a dW or dx sum at its first product instead of adding
// it to the zero-initialised element (0.0f + -0.0f is +0.0f) shows up in
// the bits.
Tensor signed_zero_tensor(std::int64_t rows, std::int64_t cols, Xoshiro256& rng) {
    Tensor t({rows, cols});
    for (std::int64_t e = 0; e < t.numel(); ++e) {
        float v = static_cast<float>(rng.next_gaussian());
        if (e % 5 == 0) v = 0.0f;
        if (e % 7 == 0) v = -0.0f;
        t[static_cast<std::size_t>(e)] = v;
    }
    return t;
}

TEST(LinearTest, BlockedKernelsAreBitIdenticalToReferenceLoops) {
    for (const std::int64_t n : {1, 3, 8, 9, 17}) {
        for (const std::int64_t in : {1, 5, 7, 768}) {
            for (const std::int64_t out : {1, 3, 4, 5, 10}) {
                SCOPED_TRACE(::testing::Message() << "n=" << n << " in=" << in << " out=" << out);
                Xoshiro256 rng(static_cast<std::uint64_t>(n * 100003 + in * 101 + out));
                Linear lin(in, out, rng);
                std::vector<ParamView> params;
                lin.collect_params(params);
                ASSERT_EQ(params.size(), 2u);
                for (auto& bias : *params[1].value) bias = static_cast<float>(rng.next_gaussian());
                const std::vector<float>& w = *params[0].value;
                const std::vector<float>& b = *params[1].value;

                const Tensor x = signed_zero_tensor(n, in, rng);
                const Tensor y = lin.forward(x, true);
                EXPECT_TRUE(bitwise_equal(y.data(), reference_linear_forward(w, b, x, in, out).data()));

                std::vector<float> dw(w.size(), 0.0f);
                std::vector<float> db(b.size(), 0.0f);
                for (int call = 0; call < 2; ++call) {
                    SCOPED_TRACE(::testing::Message() << "backward call " << call);
                    const Tensor dy = signed_zero_tensor(n, out, rng);
                    const Tensor dx = lin.backward(dy);
                    const Tensor ref_dx = reference_linear_backward(w, x, dy, in, out, dw, db);
                    EXPECT_TRUE(bitwise_equal(dx.data(), ref_dx.data()));
                    EXPECT_TRUE(bitwise_equal(*params[0].grad, dw));
                    EXPECT_TRUE(bitwise_equal(*params[1].grad, db));
                }
            }
        }
    }
}

TEST(ActivationTest, ReluClampsNegatives) {
    ReLU relu;
    Tensor x({1, 4}, {-1, 0, 2, -3});
    Tensor y = relu.forward(x, true);
    EXPECT_EQ(y.data()[0], 0.0f);
    EXPECT_EQ(y.data()[2], 2.0f);
    Tensor dy({1, 4}, {1, 1, 1, 1});
    Tensor dx = relu.backward(dy);
    EXPECT_EQ(dx.data()[0], 0.0f);  // gradient blocked where x <= 0
    EXPECT_EQ(dx.data()[2], 1.0f);
}

TEST(ActivationTest, TanhAndSigmoidValues) {
    Tanh tanh_layer;
    Sigmoid sig;
    Tensor x({1, 1}, {0.5f});
    EXPECT_NEAR(tanh_layer.forward(x, false).data()[0], std::tanh(0.5f), 1e-6f);
    EXPECT_NEAR(sig.forward(x, false).data()[0], 1.0f / (1.0f + std::exp(-0.5f)),
                1e-6f);
}

TEST(FlattenTest, CollapsesTrailingDims) {
    Flatten f;
    Tensor x({2, 3, 4, 4});
    Tensor y = f.forward(x, true);
    EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 48}));
    Tensor dy({2, 48});
    EXPECT_EQ(f.backward(dy).shape(), x.shape());
}

TEST(Conv2dTest, IdentityKernelPreservesInput) {
    Xoshiro256 rng(2);
    Conv2d conv(1, 1, 3, 1, 1, rng);
    std::vector<ParamView> params;
    conv.collect_params(params);
    // 3x3 kernel with 1 at center: identity under padding=1.
    *params[0].value = {0, 0, 0, 0, 1, 0, 0, 0, 0};
    *params[1].value = {0};
    Tensor x({1, 1, 4, 4});
    for (std::int64_t i = 0; i < 16; ++i) x[static_cast<std::size_t>(i)] = static_cast<float>(i);
    Tensor y = conv.forward(x, false);
    EXPECT_EQ(y.shape(), x.shape());
    for (std::size_t i = 0; i < 16; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2dTest, KnownSmallConvolution) {
    Xoshiro256 rng(2);
    Conv2d conv(1, 1, 2, 1, 0, rng);
    std::vector<ParamView> params;
    conv.collect_params(params);
    *params[0].value = {1, 2, 3, 4};
    *params[1].value = {0.5f};
    Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
    Tensor y = conv.forward(x, false);
    EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{1, 1, 1, 1}));
    EXPECT_FLOAT_EQ(y[0], 1 * 1 + 2 * 2 + 3 * 3 + 4 * 4 + 0.5f);
}

TEST(Conv2dTest, StrideShrinksOutput) {
    Xoshiro256 rng(2);
    Conv2d conv(3, 5, 3, 2, 1, rng);
    Tensor x({2, 3, 8, 8});
    Tensor y = conv.forward(x, false);
    EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 5, 4, 4}));
}

TEST(MaxPoolTest, PicksWindowMaxAndRoutesGradient) {
    MaxPool2d pool(2);
    Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
    Tensor y = pool.forward(x, true);
    EXPECT_EQ(y.numel(), 1);
    EXPECT_FLOAT_EQ(y[0], 5.0f);
    Tensor dy({1, 1, 1, 1}, {10.0f});
    Tensor dx = pool.backward(dy);
    EXPECT_FLOAT_EQ(dx[1], 10.0f);  // only the argmax receives gradient
    EXPECT_FLOAT_EQ(dx[0], 0.0f);
}

TEST(MaxPoolTest, RejectsIndivisibleDims) {
    MaxPool2d pool(2);
    Tensor x({1, 1, 3, 3});
    EXPECT_THROW(pool.forward(x, false), std::invalid_argument);
}

TEST(DropoutTest, EvalModeIsIdentity) {
    Dropout drop(0.5f, 1);
    Tensor x({1, 100});
    x.fill(1.0f);
    Tensor y = drop.forward(x, false);
    for (auto v : y.data()) EXPECT_EQ(v, 1.0f);
}

TEST(DropoutTest, TrainModeZeroesAndRescales) {
    Dropout drop(0.5f, 1);
    Tensor x({1, 10000});
    x.fill(1.0f);
    Tensor y = drop.forward(x, true);
    int zeros = 0;
    double sum = 0;
    for (auto v : y.data()) {
        if (v == 0.0f) {
            ++zeros;
        } else {
            EXPECT_FLOAT_EQ(v, 2.0f);  // 1/(1-p)
        }
        sum += v;
    }
    EXPECT_NEAR(zeros / 10000.0, 0.5, 0.03);
    EXPECT_NEAR(sum / 10000.0, 1.0, 0.06);  // inverted dropout preserves mean
}

TEST(ResidualTest, AddsSkipConnection) {
    auto body = std::make_unique<Sequential>();
    // Empty body: y = x + x.
    ResidualBlock block(std::move(body));
    Tensor x({1, 3}, {1, 2, 3});
    Tensor y = block.forward(x, true);
    EXPECT_FLOAT_EQ(y.data()[1], 4.0f);
    Tensor dy({1, 3}, {1, 1, 1});
    Tensor dx = block.backward(dy);
    EXPECT_FLOAT_EQ(dx.data()[0], 2.0f);
}

TEST(LossTest, SoftmaxCrossEntropyKnownValue) {
    // Uniform logits over C classes -> loss = log(C).
    Tensor logits({2, 4});
    std::vector<std::int32_t> labels{0, 3};
    const LossResult lr = softmax_cross_entropy(logits, labels);
    EXPECT_NEAR(lr.loss, std::log(4.0f), 1e-5f);
    // Gradient: (p - onehot)/N with p = 1/4.
    EXPECT_NEAR(lr.dlogits.at2(0, 0), (0.25f - 1.0f) / 2.0f, 1e-6f);
    EXPECT_NEAR(lr.dlogits.at2(0, 1), 0.25f / 2.0f, 1e-6f);
}

TEST(LossTest, GradientRowsSumToZero) {
    Tensor logits({3, 5}, {1, 2, 3, 4, 5, -1, 0, 1, 0, -1, 2, 2, 2, 2, 2});
    std::vector<std::int32_t> labels{2, 0, 4};
    const LossResult lr = softmax_cross_entropy(logits, labels);
    for (std::int64_t i = 0; i < 3; ++i) {
        float row_sum = 0;
        for (std::int64_t j = 0; j < 5; ++j) row_sum += lr.dlogits.at2(i, j);
        EXPECT_NEAR(row_sum, 0.0f, 1e-6f);
    }
}

TEST(LossTest, RejectsBadLabels) {
    Tensor logits({1, 3});
    std::vector<std::int32_t> labels{5};
    EXPECT_THROW(softmax_cross_entropy(logits, labels), std::invalid_argument);
}

TEST(LossTest, MseKnownValue) {
    Tensor out({1, 2}, {1.0f, 3.0f});
    Tensor target({1, 2}, {0.0f, 0.0f});
    const LossResult lr = mse_loss(out, target);
    EXPECT_FLOAT_EQ(lr.loss, 5.0f);
    EXPECT_FLOAT_EQ(lr.dlogits.data()[1], 3.0f);  // 2*d/n = 2*3/2
}

TEST(LossTest, AccuracyCountsArgmax) {
    Tensor logits({2, 3}, {0, 5, 0, 1, 0, 0});
    std::vector<std::int32_t> labels{1, 2};
    EXPECT_DOUBLE_EQ(accuracy(logits, labels), 0.5);
}

TEST(ModelZoo, MiniVggDropoutVariantTrains) {
    MiniVggConfig cfg;
    cfg.image_size = 8;
    cfg.conv_channels = 3;
    cfg.fc_dim = 32;
    cfg.dropout = 0.3f;
    auto model = make_mini_vgg(cfg, 5);
    // Dropout layers carry no parameters.
    EXPECT_EQ(model->num_params(), make_mini_vgg([&] {
                                       auto c = cfg;
                                       c.dropout = 0.0f;
                                       return c;
                                   }(),
                                                 5)
                                       ->num_params());
    Batch batch;
    batch.x = Tensor({2, 3, 8, 8});
    batch.x.fill(0.3f);
    batch.targets = {1, 4};
    const double first = model->train_step_gradients(batch);
    EXPECT_TRUE(std::isfinite(first));
    // Eval mode is deterministic (no masks): two eval losses agree.
    EXPECT_EQ(model->eval_loss(batch), model->eval_loss(batch));
}

TEST(ModelZoo, FactoriesAreDeterministic) {
    const auto a = make_mini_vgg({}, 7);
    const auto b = make_mini_vgg({}, 7);
    const auto c = make_mini_vgg({}, 8);
    EXPECT_EQ(a->flat_params(), b->flat_params());
    EXPECT_NE(a->flat_params(), c->flat_params());
}

TEST(ModelZoo, ParamCountsArePositiveAndStable) {
    EXPECT_GT(make_mlp({}, 1)->num_params(), 0u);
    EXPECT_GT(make_mini_vgg({}, 1)->num_params(), 0u);
    EXPECT_GT(make_mini_resnet({}, 1)->num_params(), 0u);
    EXPECT_GT(make_lstm_lm({}, 1)->num_params(), 0u);
    // Same config -> same structure.
    EXPECT_EQ(make_mini_resnet({}, 1)->num_params(), make_mini_resnet({}, 2)->num_params());
}

TEST(ModelInterface, FlatRoundTrip) {
    auto model = make_mlp({8, {4}, 3}, 3);
    auto w = model->flat_params();
    ASSERT_EQ(w.size(), model->num_params());
    for (auto& x : w) x += 1.0f;
    model->set_flat_params(w);
    EXPECT_EQ(model->flat_params(), w);
    std::vector<float> delta(w.size(), 0.5f);
    model->add_flat_delta(delta);
    EXPECT_FLOAT_EQ(model->flat_params()[0], w[0] + 0.5f);
}

TEST(ModelInterface, TrainStepFillsGradients) {
    auto model = make_mlp({8, {4}, 3}, 3);
    Batch batch;
    batch.x = Tensor({2, 8});
    batch.x.fill(0.1f);
    batch.targets = {0, 2};
    const float loss = model->train_step_gradients(batch);
    EXPECT_GT(loss, 0.0f);
    const auto grads = model->flat_grads();
    double norm = 0;
    for (float g : grads) norm += std::abs(g);
    EXPECT_GT(norm, 0.0);
}

}  // namespace
