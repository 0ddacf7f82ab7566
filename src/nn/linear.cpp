#include "nn/linear.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/init.hpp"

namespace gtopk::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features,
               util::Xoshiro256& rng)
    : in_(in_features),
      out_(out_features),
      w_(static_cast<std::size_t>(in_features * out_features)),
      b_(static_cast<std::size_t>(out_features), 0.0f),
      dw_(w_.size(), 0.0f),
      db_(b_.size(), 0.0f) {
    kaiming_normal(w_, static_cast<std::size_t>(in_features), rng);
}

namespace {

// Forward tiles: kRows batch rows (the vector lanes) by kOuts outputs.
constexpr std::int64_t kRows = 8;
constexpr std::int64_t kOuts = 4;
// Backward feature chunk: the fixed-width inner loop of the row updates.
constexpr std::int64_t kCols = 8;

// y[r][o + j] = b[o + j] + sum over ascending k of xt[k][r] * W[o + j][k]
// for the first `rows` rows of the tile and the `outs` (<= kOuts) outputs
// from o. xt is the tile transposed to [in][kRows]. Each (r, j) has its own
// accumulator, so 4 * kRows chains run side by side while each keeps the
// scalar order. Past the last output, a block recomputes output out - 1
// and does not store it.
void forward_block(const float* __restrict xt, const float* __restrict w,
                   const float* __restrict b, std::int64_t in, std::int64_t o,
                   std::int64_t outs, float* __restrict y, std::int64_t out,
                   std::int64_t rows) {
    const std::int64_t o1 = o + std::min<std::int64_t>(1, outs - 1);
    const std::int64_t o2 = o + std::min<std::int64_t>(2, outs - 1);
    const std::int64_t o3 = o + std::min<std::int64_t>(3, outs - 1);
    const float* __restrict w0 = w + o * in;
    const float* __restrict w1 = w + o1 * in;
    const float* __restrict w2 = w + o2 * in;
    const float* __restrict w3 = w + o3 * in;
    float a0[kRows], a1[kRows], a2[kRows], a3[kRows];
    for (std::int64_t r = 0; r < kRows; ++r) {
        a0[r] = b[o];
        a1[r] = b[o1];
        a2[r] = b[o2];
        a3[r] = b[o3];
    }
    for (std::int64_t k = 0; k < in; ++k) {
        const float* __restrict xk = xt + k * kRows;
        for (std::int64_t r = 0; r < kRows; ++r) a0[r] += xk[r] * w0[k];
        for (std::int64_t r = 0; r < kRows; ++r) a1[r] += xk[r] * w1[k];
        for (std::int64_t r = 0; r < kRows; ++r) a2[r] += xk[r] * w2[k];
        for (std::int64_t r = 0; r < kRows; ++r) a3[r] += xk[r] * w3[k];
    }
    const float* acc[kOuts] = {a0, a1, a2, a3};
    for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t j = 0; j < outs; ++j) y[r * out + o + j] = acc[j][r];
    }
}

// dw[k] += g * x[k] and dx[k] += g * w[k] for k < len.
void backward_row(float g, const float* __restrict x, const float* __restrict w,
                  float* __restrict dw, float* __restrict dx, std::int64_t len) {
    std::int64_t k = 0;
    for (; k + kCols <= len; k += kCols) {
        for (std::int64_t c = 0; c < kCols; ++c) dw[k + c] += g * x[k + c];
        for (std::int64_t c = 0; c < kCols; ++c) dx[k + c] += g * w[k + c];
    }
    for (; k < len; ++k) {
        dw[k] += g * x[k];
        dx[k] += g * w[k];
    }
}

}  // namespace

Tensor Linear::forward(const Tensor& x, bool training) {
    if (x.rank() != 2 || x.dim(1) != in_) {
        throw std::invalid_argument("Linear::forward: expected [N, in]");
    }
    if (training) cached_x_ = x;
    const std::int64_t n = x.dim(0);
    Tensor y({n, out_});
    xt_.resize(static_cast<std::size_t>(in_ * kRows));
    float* xt = xt_.data();
    for (std::int64_t i0 = 0; i0 < n; i0 += kRows) {
        const std::int64_t rows = std::min(kRows, n - i0);
        const float* xi = x.raw() + i0 * in_;
        for (std::int64_t k = 0; k < in_; ++k) {
            for (std::int64_t r = 0; r < rows; ++r) xt[k * kRows + r] = xi[r * in_ + k];
            for (std::int64_t r = rows; r < kRows; ++r) xt[k * kRows + r] = 0.0f;
        }
        float* yi = y.raw() + i0 * out_;
        for (std::int64_t o = 0; o < out_; o += kOuts) {
            forward_block(xt, w_.data(), b_.data(), in_, o, std::min(kOuts, out_ - o),
                          yi, out_, rows);
        }
    }
    return y;
}

Tensor Linear::backward(const Tensor& dy) {
    const std::int64_t n = dy.dim(0);
    if (dy.rank() != 2 || dy.dim(1) != out_ || cached_x_.dim(0) != n) {
        throw std::invalid_argument("Linear::backward: shape mismatch");
    }
    Tensor dx({n, in_});
    // Outputs outermost so W's and dW's row o stay in cache across the
    // batch. Every element still gets its summands in the order of the
    // sample-outermost loop: db[o] and dW[o][k] over ascending i, dx[i][k]
    // over ascending o.
    for (std::int64_t o = 0; o < out_; ++o) {
        const float* wo = w_.data() + o * in_;
        float* dwo = dw_.data() + o * in_;
        for (std::int64_t i = 0; i < n; ++i) {
            const float g = dy.raw()[i * out_ + o];
            db_[static_cast<std::size_t>(o)] += g;
            backward_row(g, cached_x_.raw() + i * in_, wo, dwo, dx.raw() + i * in_, in_);
        }
    }
    return dx;
}

void Linear::collect_params(std::vector<ParamView>& out) {
    out.push_back({&w_, &dw_, "linear.w"});
    out.push_back({&b_, &db_, "linear.b"});
}

}  // namespace gtopk::nn
