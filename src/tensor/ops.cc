#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/parallel.h"

namespace graphrare {
namespace tensor {
namespace ops {

namespace {

/// Adds `delta` into the parent's grad buffer if it participates in autograd.
void Accumulate(const std::shared_ptr<AutogradNode>& parent,
                const Tensor& delta) {
  if (!parent->requires_grad) return;
  parent->EnsureGrad();
  parent->grad.AddInPlace(delta);
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  GR_CHECK(a.value().SameShape(b.value()))
      << "Add shape mismatch " << a.value().rows() << "x" << a.value().cols()
      << " vs " << b.value().rows() << "x" << b.value().cols();
  Tensor out = a.value();
  out.AddInPlace(b.value());
  return MakeOpNode(std::move(out), {a, b}, [](AutogradNode* n) {
    Accumulate(n->parents[0], n->grad);
    Accumulate(n->parents[1], n->grad);
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  GR_CHECK(a.value().SameShape(b.value()));
  Tensor out = a.value();
  out.AxpyInPlace(-1.0f, b.value());
  return MakeOpNode(std::move(out), {a, b}, [](AutogradNode* n) {
    Accumulate(n->parents[0], n->grad);
    if (n->parents[1]->requires_grad) {
      n->parents[1]->EnsureGrad();
      n->parents[1]->grad.AxpyInPlace(-1.0f, n->grad);
    }
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  GR_CHECK(a.value().SameShape(b.value()));
  Tensor out = a.value();
  out.MulInPlace(b.value());
  return MakeOpNode(std::move(out), {a, b}, [](AutogradNode* n) {
    if (n->parents[0]->requires_grad) {
      Tensor d = n->grad;
      d.MulInPlace(n->parents[1]->value);
      Accumulate(n->parents[0], d);
    }
    if (n->parents[1]->requires_grad) {
      Tensor d = n->grad;
      d.MulInPlace(n->parents[0]->value);
      Accumulate(n->parents[1], d);
    }
  });
}

Variable AddBias(const Variable& a, const Variable& bias) {
  GR_CHECK_EQ(bias.value().rows(), 1);
  GR_CHECK_EQ(bias.value().cols(), a.value().cols());
  Tensor out = a.value();
  const float* pb = bias.value().data();
  const int64_t cols = out.cols();
  float* po = out.data();
  ParallelFor(out.rows(), 256, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      float* pr = po + r * cols;
      for (int64_t c = 0; c < cols; ++c) pr[c] += pb[c];
    }
  });
  return MakeOpNode(std::move(out), {a, bias}, [](AutogradNode* n) {
    Accumulate(n->parents[0], n->grad);
    if (n->parents[1]->requires_grad) {
      Accumulate(n->parents[1], ColSum(n->grad));
    }
  });
}

Variable AddBiasRelu(const Variable& a, const Variable& bias) {
  GR_CHECK_EQ(bias.value().rows(), 1);
  GR_CHECK_EQ(bias.value().cols(), a.value().cols());
  Tensor out = a.value();
  const float* pb = bias.value().data();
  const int64_t cols = out.cols();
  {
    float* po = out.data();
    ParallelFor(out.rows(), 256, [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        float* pr = po + r * cols;
        for (int64_t c = 0; c < cols; ++c) {
          const float v = pr[c] + pb[c];
          pr[c] = v > 0.0f ? v : 0.0f;
        }
      }
    });
  }
  // The mask is recoverable from the saved output (y > 0 iff x > 0), so no
  // extra buffer is captured.
  return MakeOpNode(std::move(out), {a, bias}, [](AutogradNode* n) {
    const Tensor& y = n->value;
    const int64_t rows = y.rows();
    const int64_t cols = y.cols();
    if (n->parents[0]->requires_grad) {
      n->parents[0]->EnsureGrad();
      Tensor& pg = n->parents[0]->grad;
      ParallelFor(rows, 256, [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const float* gy = n->grad.row(r);
          const float* py = y.row(r);
          float* pgr = pg.row(r);
          for (int64_t c = 0; c < cols; ++c) {
            if (py[c] > 0.0f) pgr[c] += gy[c];
          }
        }
      });
    }
    if (n->parents[1]->requires_grad) {
      // Masked column sums with the same fixed row-block structure as
      // ColSum, so the fused path stays bitwise equal to the
      // Relu -> AddBias backward chain at any size.
      Tensor db = ParallelReduce<Tensor>(
          rows, kColSumRowBlock, Tensor(1, cols),
          [&](int64_t r0, int64_t r1) {
            Tensor partial(1, cols);
            float* po = partial.data();
            for (int64_t r = r0; r < r1; ++r) {
              const float* gy = n->grad.row(r);
              const float* py = y.row(r);
              for (int64_t c = 0; c < cols; ++c) {
                if (py[c] > 0.0f) po[c] += gy[c];
              }
            }
            return partial;
          },
          [](Tensor acc, Tensor partial) {
            acc.AddInPlace(partial);
            return acc;
          });
      Accumulate(n->parents[1], db);
    }
  });
}

Variable Scale(const Variable& a, float c) {
  Tensor out = a.value();
  out.ScaleInPlace(c);
  return MakeOpNode(std::move(out), {a}, [c](AutogradNode* n) {
    if (n->parents[0]->requires_grad) {
      n->parents[0]->EnsureGrad();
      n->parents[0]->grad.AxpyInPlace(c, n->grad);
    }
  });
}

Variable AddScalar(const Variable& a, float c) {
  Tensor out = a.value();
  float* p = out.data();
  for (int64_t i = 0; i < out.numel(); ++i) p[i] += c;
  return MakeOpNode(std::move(out), {a}, [](AutogradNode* n) {
    Accumulate(n->parents[0], n->grad);
  });
}

Variable Neg(const Variable& a) { return Scale(a, -1.0f); }

Variable Square(const Variable& a) { return Mul(a, a); }

Variable MatMul(const Variable& a, const Variable& b) {
  Tensor out = tensor::MatMul(a.value(), b.value());
  return MakeOpNode(std::move(out), {a, b}, [](AutogradNode* n) {
    // dA = G * B^T ; dB = A^T * G
    if (n->parents[0]->requires_grad) {
      Accumulate(n->parents[0],
                 tensor::MatMulTransB(n->grad, n->parents[1]->value));
    }
    if (n->parents[1]->requires_grad) {
      Accumulate(n->parents[1],
                 tensor::MatMulTransA(n->parents[0]->value, n->grad));
    }
  });
}

Variable SpMM(std::shared_ptr<const CsrMatrix> s, const Variable& x) {
  GR_CHECK(s != nullptr);
  Tensor out = s->SpMM(x.value());
  return MakeOpNode(std::move(out), {x}, [s](AutogradNode* n) {
    if (n->parents[0]->requires_grad) {
      Accumulate(n->parents[0], s->Transposed()->SpMM(n->grad));
    }
  });
}

namespace {

/// Shared implementation for elementwise unary ops. `dydx` receives (x, y)
/// and returns the local derivative. Both passes are pure per element and
/// run in kElementwiseGrain chunks; the backward reads y from the node's own
/// value (kept alive by the tape) and accumulates g * dydx straight into the
/// parent's gradient — the product rounds to float before the add, exactly
/// as a separate d = g * dydx buffer followed by AddInPlace would.
template <typename FwdFn, typename GradFn>
Variable UnaryElementwise(const Variable& a, FwdFn fwd, GradFn dydx) {
  const Tensor& x = a.value();
  Tensor out = Tensor::Uninitialized(x.rows(), x.cols());
  const float* px = x.data();
  float* py = out.data();
  ParallelFor(out.numel(), kElementwiseGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) py[i] = fwd(px[i]);
  });
  return MakeOpNode(std::move(out), {a}, [dydx](AutogradNode* n) {
    if (!n->parents[0]->requires_grad) return;
    const float* px = n->parents[0]->value.data();
    const float* py = n->value.data();
    const float* pg = n->grad.data();
    float* pd = n->parents[0]->EnsureGrad()->data();
    ParallelFor(n->value.numel(), kElementwiseGrain,
                [&](int64_t i0, int64_t i1) {
                  for (int64_t i = i0; i < i1; ++i) {
                    pd[i] += pg[i] * dydx(px[i], py[i]);
                  }
                });
  });
}

/// Inverted-dropout mask: element i is the i-th Bernoulli(p) draw of rng's
/// stream; 0 where the draw fires, 1 / (1 - p) elsewhere. Branch-free — the
/// draw's outcome scales the keep value (0 * keep is +0, 1 * keep is keep)
/// instead of selecting it, since a fair coin defeats branch prediction.
/// Masks longer than one chunk are drawn in fixed kDropoutMaskChunk chunks
/// in parallel (shorter ones serially: a thread team costs more than the
/// draws), each from a copy of rng jumped ahead to the chunk's first draw,
/// and rng is then jumped past all n draws: the mask and rng's final state
/// are bitwise the serial loop's at any thread count.
void DrawDropoutMask(float p, Rng* rng, float* pm, int64_t n) {
  GR_CHECK(rng != nullptr);
  const float keep = 1.0f / (1.0f - p);
  const auto draw = [&](Rng* r, int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      pm[i] = static_cast<float>(!r->Bernoulli(p)) * keep;
    }
  };
  if (n <= kDropoutMaskChunk) {
    draw(rng, 0, n);
    return;
  }
  ParallelFor(n, kDropoutMaskChunk, [&](int64_t i0, int64_t i1) {
    Rng chunk = *rng;
    chunk.Advance(static_cast<uint64_t>(i0));
    draw(&chunk, i0, i1);
  });
  rng->Advance(static_cast<uint64_t>(n));
}

}  // namespace

Variable Relu(const Variable& a) {
  return UnaryElementwise(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Variable LeakyRelu(const Variable& a, float negative_slope) {
  return UnaryElementwise(
      a,
      [negative_slope](float x) { return x > 0.0f ? x : negative_slope * x; },
      [negative_slope](float x, float) {
        return x > 0.0f ? 1.0f : negative_slope;
      });
}

Variable Elu(const Variable& a, float alpha) {
  return UnaryElementwise(
      a,
      [alpha](float x) {
        // Both sides are computed and then selected (no data-dependent
        // branch); min keeps exp from overflowing on the discarded side.
        const float neg = alpha * (std::exp(std::min(x, 0.0f)) - 1.0f);
        return x > 0.0f ? x : neg;
      },
      [alpha](float x, float y) { return x > 0.0f ? 1.0f : y + alpha; });
}

Variable Tanh(const Variable& a) {
  return UnaryElementwise(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Variable Sigmoid(const Variable& a) {
  return UnaryElementwise(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Variable Exp(const Variable& a) {
  return UnaryElementwise(
      a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Variable Log(const Variable& a) {
  return UnaryElementwise(
      a,
      [](float x) {
        GR_DCHECK(x > 0.0f);
        return std::log(x);
      },
      [](float x, float) { return 1.0f / x; });
}

Variable Dropout(const Variable& a, float p, bool training, Rng* rng) {
  GR_CHECK(p >= 0.0f && p < 1.0f) << "dropout p must be in [0,1), got " << p;
  if (!training || p == 0.0f) return a;
  const Tensor& x = a.value();
  Tensor mask = Tensor::Uninitialized(x.rows(), x.cols());
  DrawDropoutMask(p, rng, mask.data(), mask.numel());
  Tensor out = Tensor::Uninitialized(x.rows(), x.cols());
  const float* px = x.data();
  const float* pm = mask.data();
  float* po = out.data();
  ParallelFor(out.numel(), kElementwiseGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) po[i] = px[i] * pm[i];
  });
  return MakeOpNode(
      std::move(out), {a}, [mask = std::move(mask)](AutogradNode* n) {
        if (!n->parents[0]->requires_grad) return;
        const float* pg = n->grad.data();
        const float* pm = mask.data();
        float* pd = n->parents[0]->EnsureGrad()->data();
        ParallelFor(mask.numel(), kElementwiseGrain,
                    [&](int64_t i0, int64_t i1) {
                      for (int64_t i = i0; i < i1; ++i) pd[i] += pg[i] * pm[i];
                    });
      });
}

Variable LogSoftmaxRows(const Variable& a) {
  const Tensor& x = a.value();
  Tensor out(x.rows(), x.cols());
  for (int64_t r = 0; r < x.rows(); ++r) {
    const float* px = x.row(r);
    float* po = out.row(r);
    float mx = -std::numeric_limits<float>::infinity();
    for (int64_t c = 0; c < x.cols(); ++c) mx = std::max(mx, px[c]);
    double lse = 0.0;
    for (int64_t c = 0; c < x.cols(); ++c) lse += std::exp(px[c] - mx);
    const float log_z = mx + static_cast<float>(std::log(lse));
    for (int64_t c = 0; c < x.cols(); ++c) po[c] = px[c] - log_z;
  }
  Tensor saved = out;
  return MakeOpNode(
      std::move(out), {a}, [saved = std::move(saved)](AutogradNode* n) {
        if (!n->parents[0]->requires_grad) return;
        // dX = G - softmax(x) * rowsum(G)
        Tensor d = n->grad;
        for (int64_t r = 0; r < d.rows(); ++r) {
          const float* pg = n->grad.row(r);
          const float* plp = saved.row(r);
          float* pd = d.row(r);
          float gsum = 0.0f;
          for (int64_t c = 0; c < d.cols(); ++c) gsum += pg[c];
          for (int64_t c = 0; c < d.cols(); ++c) {
            pd[c] = pg[c] - std::exp(plp[c]) * gsum;
          }
        }
        Accumulate(n->parents[0], d);
      });
}

Variable SoftmaxRows(const Variable& a) {
  const Tensor& x = a.value();
  Tensor out(x.rows(), x.cols());
  for (int64_t r = 0; r < x.rows(); ++r) {
    const float* px = x.row(r);
    float* po = out.row(r);
    float mx = -std::numeric_limits<float>::infinity();
    for (int64_t c = 0; c < x.cols(); ++c) mx = std::max(mx, px[c]);
    double z = 0.0;
    for (int64_t c = 0; c < x.cols(); ++c) {
      po[c] = std::exp(px[c] - mx);
      z += po[c];
    }
    const float inv = static_cast<float>(1.0 / z);
    for (int64_t c = 0; c < x.cols(); ++c) po[c] *= inv;
  }
  Tensor saved = out;
  return MakeOpNode(
      std::move(out), {a}, [saved = std::move(saved)](AutogradNode* n) {
        if (!n->parents[0]->requires_grad) return;
        // dX = y .* (G - rowsum(G .* y))
        Tensor d = n->grad;
        for (int64_t r = 0; r < d.rows(); ++r) {
          const float* pg = n->grad.row(r);
          const float* py = saved.row(r);
          float* pd = d.row(r);
          float dot = 0.0f;
          for (int64_t c = 0; c < d.cols(); ++c) dot += pg[c] * py[c];
          for (int64_t c = 0; c < d.cols(); ++c) {
            pd[c] = py[c] * (pg[c] - dot);
          }
        }
        Accumulate(n->parents[0], d);
      });
}

Variable NllLoss(const Variable& logp, const std::vector<int64_t>& labels) {
  const Tensor& lp = logp.value();
  GR_CHECK_EQ(lp.rows(), static_cast<int64_t>(labels.size()));
  GR_CHECK_GT(lp.rows(), 0);
  double loss = 0.0;
  for (int64_t i = 0; i < lp.rows(); ++i) {
    GR_CHECK(labels[static_cast<size_t>(i)] >= 0 &&
             labels[static_cast<size_t>(i)] < lp.cols())
        << "label out of range";
    loss -= lp.at(i, labels[static_cast<size_t>(i)]);
  }
  loss /= static_cast<double>(lp.rows());
  return MakeOpNode(Tensor::Scalar(static_cast<float>(loss)), {logp},
                    [labels](AutogradNode* n) {
                      if (!n->parents[0]->requires_grad) return;
                      const float g = n->grad.scalar();
                      const int64_t m = n->parents[0]->value.rows();
                      n->parents[0]->EnsureGrad();
                      Tensor& pg = n->parents[0]->grad;
                      const float scale = g / static_cast<float>(m);
                      for (int64_t i = 0; i < m; ++i) {
                        pg.at(i, labels[static_cast<size_t>(i)]) -= scale;
                      }
                    });
}

Variable LogSoftmaxNll(const Variable& logits, std::vector<int64_t> index,
                       std::vector<int64_t> labels) {
  GR_CHECK_EQ(index.size(), labels.size());
  GR_CHECK(!index.empty());
  const Tensor& x = logits.value();
  const int64_t m = static_cast<int64_t>(index.size());
  const int64_t cols = x.cols();
  GR_CHECK_GT(cols, 0);
  for (int64_t i = 0; i < m; ++i) {
    GR_CHECK(index[static_cast<size_t>(i)] >= 0 &&
             index[static_cast<size_t>(i)] < x.rows())
        << "gather index out of range";
    GR_CHECK(labels[static_cast<size_t>(i)] >= 0 &&
             labels[static_cast<size_t>(i)] < cols)
        << "label out of range";
  }

  // One pass per selected row: row max, log partition, and the picked
  // log-probability. log_z is saved so backward can rebuild the softmax
  // factors from the parent's logits without a stored (m, c) matrix.
  Tensor logz(m, 1);
  Tensor picked(m, 1);
  ParallelFor(m, 256, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float* px = x.row(index[static_cast<size_t>(i)]);
      float mx = -std::numeric_limits<float>::infinity();
      for (int64_t c = 0; c < cols; ++c) mx = std::max(mx, px[c]);
      double lse = 0.0;
      for (int64_t c = 0; c < cols; ++c) lse += std::exp(px[c] - mx);
      const float log_z = mx + static_cast<float>(std::log(lse));
      logz.at(i, 0) = log_z;
      picked.at(i, 0) = px[labels[static_cast<size_t>(i)]] - log_z;
    }
  });
  double loss = 0.0;
  for (int64_t i = 0; i < m; ++i) loss -= picked.at(i, 0);
  loss /= static_cast<double>(m);

  return MakeOpNode(
      Tensor::Scalar(static_cast<float>(loss)), {logits},
      [index = std::move(index), labels = std::move(labels),
       logz = std::move(logz)](AutogradNode* n) {
        if (!n->parents[0]->requires_grad) return;
        const Tensor& x = n->parents[0]->value;
        const int64_t cols = x.cols();
        const float g = n->grad.scalar();
        const float scale = g / static_cast<float>(index.size());
        n->parents[0]->EnsureGrad();
        Tensor& pg = n->parents[0]->grad;
        // Serial over the selection: duplicate indices must accumulate in
        // a fixed order.
        for (size_t i = 0; i < index.size(); ++i) {
          const int64_t r = index[i];
          const float lz = logz.at(static_cast<int64_t>(i), 0);
          const float* px = x.row(r);
          float* pgr = pg.row(r);
          for (int64_t c = 0; c < cols; ++c) {
            pgr[c] += scale * std::exp(px[c] - lz);
          }
          pgr[labels[i]] -= scale;
        }
      });
}

Variable SumAll(const Variable& a) {
  return MakeOpNode(Tensor::Scalar(a.value().Sum()), {a},
                    [](AutogradNode* n) {
                      if (!n->parents[0]->requires_grad) return;
                      const float g = n->grad.scalar();
                      n->parents[0]->EnsureGrad();
                      Tensor& pg = n->parents[0]->grad;
                      float* p = pg.data();
                      for (int64_t i = 0; i < pg.numel(); ++i) p[i] += g;
                    });
}

Variable MeanAll(const Variable& a) {
  const int64_t n_elem = a.value().numel();
  GR_CHECK_GT(n_elem, 0);
  return MakeOpNode(Tensor::Scalar(a.value().Mean()), {a},
                    [n_elem](AutogradNode* n) {
                      if (!n->parents[0]->requires_grad) return;
                      const float g =
                          n->grad.scalar() / static_cast<float>(n_elem);
                      n->parents[0]->EnsureGrad();
                      Tensor& pg = n->parents[0]->grad;
                      float* p = pg.data();
                      for (int64_t i = 0; i < pg.numel(); ++i) p[i] += g;
                    });
}

Variable RowSumCols(const Variable& a) {
  Tensor out = RowSum(a.value());
  return MakeOpNode(std::move(out), {a}, [](AutogradNode* n) {
    if (!n->parents[0]->requires_grad) return;
    n->parents[0]->EnsureGrad();
    Tensor& pg = n->parents[0]->grad;
    for (int64_t r = 0; r < pg.rows(); ++r) {
      const float g = n->grad.at(r, 0);
      float* p = pg.row(r);
      for (int64_t c = 0; c < pg.cols(); ++c) p[c] += g;
    }
  });
}

Variable ConcatCols(const std::vector<Variable>& parts) {
  GR_CHECK(!parts.empty());
  const int64_t rows = parts[0].value().rows();
  std::vector<int64_t> offsets{0};
  for (const auto& p : parts) {
    GR_CHECK_EQ(p.value().rows(), rows);
    offsets.push_back(offsets.back() + p.value().cols());
  }
  const int64_t total_cols = offsets.back();
  // Row-parallel copies and gradient adds, in chunks of about
  // kElementwiseGrain elements; every element is written exactly once.
  const int64_t row_grain =
      std::max<int64_t>(1, kElementwiseGrain / std::max<int64_t>(1, total_cols));
  Tensor out = Tensor::Uninitialized(rows, total_cols);
  ParallelFor(rows, row_grain, [&](int64_t r0, int64_t r1) {
    for (size_t k = 0; k < parts.size(); ++k) {
      const Tensor& v = parts[k].value();
      for (int64_t r = r0; r < r1; ++r) {
        std::copy(v.row(r), v.row(r) + v.cols(), out.row(r) + offsets[k]);
      }
    }
  });
  return MakeOpNode(
      std::move(out), parts, [offsets, row_grain](AutogradNode* n) {
        // Parents in order, so a part listed twice accumulates as before.
        for (size_t k = 0; k < n->parents.size(); ++k) {
          auto& parent = n->parents[k];
          if (!parent->requires_grad) continue;
          Tensor& pg = *parent->EnsureGrad();
          const int64_t o = offsets[k];
          ParallelFor(pg.rows(), row_grain, [&](int64_t r0, int64_t r1) {
            for (int64_t r = r0; r < r1; ++r) {
              const float* src = n->grad.row(r) + o;
              float* dst = pg.row(r);
              for (int64_t c = 0; c < pg.cols(); ++c) dst[c] += src[c];
            }
          });
        }
      });
}

Variable GatherRows(const Variable& x, std::vector<int64_t> idx) {
  const Tensor& v = x.value();
  Tensor out(static_cast<int64_t>(idx.size()), v.cols());
  for (size_t i = 0; i < idx.size(); ++i) {
    GR_CHECK(idx[i] >= 0 && idx[i] < v.rows()) << "gather index out of range";
    std::copy(v.row(idx[i]), v.row(idx[i]) + v.cols(),
              out.row(static_cast<int64_t>(i)));
  }
  return MakeOpNode(std::move(out), {x}, [idx = std::move(idx)](AutogradNode* n) {
    if (!n->parents[0]->requires_grad) return;
    n->parents[0]->EnsureGrad();
    Tensor& pg = n->parents[0]->grad;
    for (size_t i = 0; i < idx.size(); ++i) {
      const float* src = n->grad.row(static_cast<int64_t>(i));
      float* dst = pg.row(idx[i]);
      for (int64_t c = 0; c < pg.cols(); ++c) dst[c] += src[c];
    }
  });
}

Variable ScatterAddRows(const Variable& x, std::vector<int64_t> idx,
                        int64_t num_rows) {
  const Tensor& v = x.value();
  GR_CHECK_EQ(v.rows(), static_cast<int64_t>(idx.size()));
  Tensor out(num_rows, v.cols());
  for (size_t i = 0; i < idx.size(); ++i) {
    GR_CHECK(idx[i] >= 0 && idx[i] < num_rows) << "scatter index out of range";
    const float* src = v.row(static_cast<int64_t>(i));
    float* dst = out.row(idx[i]);
    for (int64_t c = 0; c < v.cols(); ++c) dst[c] += src[c];
  }
  return MakeOpNode(std::move(out), {x}, [idx = std::move(idx)](AutogradNode* n) {
    if (!n->parents[0]->requires_grad) return;
    n->parents[0]->EnsureGrad();
    Tensor& pg = n->parents[0]->grad;
    for (size_t i = 0; i < idx.size(); ++i) {
      const float* src = n->grad.row(idx[i]);
      float* dst = pg.row(static_cast<int64_t>(i));
      for (int64_t c = 0; c < pg.cols(); ++c) dst[c] += src[c];
    }
  });
}

Variable GatherCols(const Variable& x, std::vector<int64_t> idx) {
  const Tensor& v = x.value();
  GR_CHECK_EQ(v.rows(), static_cast<int64_t>(idx.size()));
  Tensor out(v.rows(), 1);
  for (int64_t i = 0; i < v.rows(); ++i) {
    GR_CHECK(idx[static_cast<size_t>(i)] >= 0 &&
             idx[static_cast<size_t>(i)] < v.cols());
    out.at(i, 0) = v.at(i, idx[static_cast<size_t>(i)]);
  }
  return MakeOpNode(std::move(out), {x}, [idx = std::move(idx)](AutogradNode* n) {
    if (!n->parents[0]->requires_grad) return;
    n->parents[0]->EnsureGrad();
    Tensor& pg = n->parents[0]->grad;
    for (int64_t i = 0; i < pg.rows(); ++i) {
      pg.at(i, idx[static_cast<size_t>(i)]) += n->grad.at(i, 0);
    }
  });
}

Variable RowScale(const Variable& x, const Variable& s) {
  const Tensor& v = x.value();
  GR_CHECK_EQ(s.value().rows(), v.rows());
  GR_CHECK_EQ(s.value().cols(), 1);
  Tensor out = v;
  for (int64_t r = 0; r < v.rows(); ++r) {
    const float sv = s.value().at(r, 0);
    float* p = out.row(r);
    for (int64_t c = 0; c < v.cols(); ++c) p[c] *= sv;
  }
  return MakeOpNode(std::move(out), {x, s}, [](AutogradNode* n) {
    const Tensor& xv = n->parents[0]->value;
    const Tensor& sv = n->parents[1]->value;
    if (n->parents[0]->requires_grad) {
      n->parents[0]->EnsureGrad();
      Tensor& pg = n->parents[0]->grad;
      for (int64_t r = 0; r < pg.rows(); ++r) {
        const float svr = sv.at(r, 0);
        const float* g = n->grad.row(r);
        float* p = pg.row(r);
        for (int64_t c = 0; c < pg.cols(); ++c) p[c] += g[c] * svr;
      }
    }
    if (n->parents[1]->requires_grad) {
      n->parents[1]->EnsureGrad();
      Tensor& pg = n->parents[1]->grad;
      for (int64_t r = 0; r < xv.rows(); ++r) {
        const float* g = n->grad.row(r);
        const float* xr = xv.row(r);
        float dot = 0.0f;
        for (int64_t c = 0; c < xv.cols(); ++c) dot += g[c] * xr[c];
        pg.at(r, 0) += dot;
      }
    }
  });
}

Variable ScaleByScalar(const Variable& x, const Variable& s) {
  GR_CHECK(s.value().is_scalar());
  Tensor out = x.value();
  out.ScaleInPlace(s.value().scalar());
  return MakeOpNode(std::move(out), {x, s}, [](AutogradNode* n) {
    const float sv = n->parents[1]->value.scalar();
    if (n->parents[0]->requires_grad) {
      n->parents[0]->EnsureGrad();
      n->parents[0]->grad.AxpyInPlace(sv, n->grad);
    }
    if (n->parents[1]->requires_grad) {
      const Tensor& xv = n->parents[0]->value;
      double dot = 0.0;
      for (int64_t i = 0; i < xv.numel(); ++i) dot += xv[i] * n->grad[i];
      n->parents[1]->EnsureGrad();
      n->parents[1]->grad[0] += static_cast<float>(dot);
    }
  });
}

Variable SegmentSoftmax(const Variable& scores, std::vector<int64_t> seg,
                        int64_t num_segments) {
  const Tensor& sc = scores.value();
  GR_CHECK_EQ(sc.cols(), 1);
  GR_CHECK_EQ(sc.rows(), static_cast<int64_t>(seg.size()));
  const int64_t e = sc.rows();

  std::vector<float> seg_max(static_cast<size_t>(num_segments),
                             -std::numeric_limits<float>::infinity());
  for (int64_t i = 0; i < e; ++i) {
    const int64_t s = seg[static_cast<size_t>(i)];
    GR_CHECK(s >= 0 && s < num_segments) << "segment index out of range";
    seg_max[static_cast<size_t>(s)] =
        std::max(seg_max[static_cast<size_t>(s)], sc.at(i, 0));
  }
  std::vector<double> seg_sum(static_cast<size_t>(num_segments), 0.0);
  Tensor out(e, 1);
  for (int64_t i = 0; i < e; ++i) {
    const int64_t s = seg[static_cast<size_t>(i)];
    out.at(i, 0) = std::exp(sc.at(i, 0) - seg_max[static_cast<size_t>(s)]);
    seg_sum[static_cast<size_t>(s)] += out.at(i, 0);
  }
  for (int64_t i = 0; i < e; ++i) {
    const int64_t s = seg[static_cast<size_t>(i)];
    out.at(i, 0) = static_cast<float>(out.at(i, 0) /
                                      seg_sum[static_cast<size_t>(s)]);
  }
  Tensor saved = out;
  return MakeOpNode(
      std::move(out), {scores},
      [seg = std::move(seg), num_segments,
       saved = std::move(saved)](AutogradNode* n) {
        if (!n->parents[0]->requires_grad) return;
        // d score_i = alpha_i * (G_i - sum_{j in seg(i)} alpha_j G_j)
        std::vector<double> seg_dot(static_cast<size_t>(num_segments), 0.0);
        const int64_t e = saved.rows();
        for (int64_t i = 0; i < e; ++i) {
          seg_dot[static_cast<size_t>(seg[static_cast<size_t>(i)])] +=
              static_cast<double>(saved.at(i, 0)) * n->grad.at(i, 0);
        }
        n->parents[0]->EnsureGrad();
        Tensor& pg = n->parents[0]->grad;
        for (int64_t i = 0; i < e; ++i) {
          const double dot =
              seg_dot[static_cast<size_t>(seg[static_cast<size_t>(i)])];
          pg.at(i, 0) += static_cast<float>(
              saved.at(i, 0) * (n->grad.at(i, 0) - dot));
        }
      });
}

namespace {

/// Runs body(k, begin, end) over every (head k, node v) pair, v in [0, n),
/// as node ranges of one head at a time: the pairs are flattened
/// head-major (index k * n + v) into dynamically scheduled chunks —
/// in-degrees are skewed, so equal node counts are not equal work — split
/// at head boundaries. Head-major order keeps a thread on one head's
/// columns at a time, which the cache prefers to walking every head of a
/// node at once.
template <typename Body>
void ForEachHead(int64_t heads, int64_t n, Body&& body) {
  constexpr int64_t kGrain = 256;
  ParallelForDynamic(heads * n, kGrain, [&](int64_t j0, int64_t j1) {
    while (j0 < j1) {
      const int64_t k = j0 / n;
      const int64_t end = std::min(j1, (k + 1) * n);
      body(k, j0 - k * n, end - k * n);
      j0 = end;
    }
  });
}

/// x > 0 ? x : slope * x with both candidates computed and one picked by
/// index: same bits as the ternary, but no data-dependent branch — an
/// attention score's sign is a coin flip, so a branch mispredicts about
/// half the time.
inline float LeakyReluSelect(float x, float slope) {
  const float picks[2] = {slope * x, x};
  return picks[x > 0.0f];
}

}  // namespace

Variable GatScores(const Variable& h, const std::vector<Variable>& a) {
  GR_CHECK(!a.empty());
  const Tensor& hv = h.value();
  const int64_t heads = static_cast<int64_t>(a.size());
  const int64_t rows = hv.rows();
  const int64_t width = hv.cols();
  GR_CHECK_EQ(width % heads, 0) << "h width must split evenly into heads";
  const int64_t f = width / heads;
  for (const auto& ak : a) {
    GR_CHECK_EQ(ak.value().rows(), f);
    GR_CHECK_EQ(ak.value().cols(), 1);
  }
  const int64_t row_grain =
      std::max<int64_t>(1, kElementwiseGrain / std::max<int64_t>(1, width));
  // Each score is the ascending-c float dot MatMul's kernels accumulate.
  Tensor out = Tensor::Uninitialized(rows, heads);
  const float* ph = hv.data();
  float* po = out.data();
  ParallelFor(rows, row_grain, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      for (int64_t k = 0; k < heads; ++k) {
        const float* hr = ph + r * width + k * f;
        const float* ak = a[static_cast<size_t>(k)].value().data();
        float acc = 0.0f;
        for (int64_t c = 0; c < f; ++c) acc += hr[c] * ak[c];
        po[r * heads + k] = acc;
      }
    }
  });
  std::vector<Variable> parents{h};
  parents.insert(parents.end(), a.begin(), a.end());
  return MakeOpNode(
      std::move(out), std::move(parents),
      [heads, f, row_grain](AutogradNode* n) {
        const Tensor& hv = n->parents[0]->value;
        const int64_t rows = hv.rows();
        const int64_t width = hv.cols();
        const float* pg = n->grad.data();
        const auto attn = [&](int64_t k) {
          return n->parents[static_cast<size_t>(k) + 1].get();
        };
        // MatMul's d_h = g * a^T: one rounded product per element, added
        // into h's gradient.
        if (n->parents[0]->requires_grad) {
          float* phg = n->parents[0]->EnsureGrad()->data();
          ParallelFor(rows, row_grain, [&](int64_t r0, int64_t r1) {
            for (int64_t r = r0; r < r1; ++r) {
              for (int64_t k = 0; k < heads; ++k) {
                const float g = pg[r * heads + k];
                const float* ak = attn(k)->value.data();
                float* d = phg + r * width + k * f;
                for (int64_t c = 0; c < f; ++c) d[c] += g * ak[c];
              }
            }
          });
        }
        bool need_a = false;
        for (int64_t k = 0; k < heads; ++k) {
          need_a = need_a || attn(k)->requires_grad;
        }
        if (!need_a) return;
        // MatMul's d_a = h^T g under MatMulTransA's contract: fixed
        // kTransAKBlock-row blocks, each summed in ascending row order,
        // combined in ascending block order — all heads in one sweep.
        const float* ph = hv.data();
        const Tensor da = ParallelReduce<Tensor>(
            rows, kTransAKBlock, Tensor(1, width),
            [&](int64_t r0, int64_t r1) {
              Tensor partial(1, width);
              float* pp = partial.data();
              for (int64_t r = r0; r < r1; ++r) {
                const float* hr = ph + r * width;
                for (int64_t k = 0; k < heads; ++k) {
                  const float g = pg[r * heads + k];
                  for (int64_t c = k * f; c < (k + 1) * f; ++c) {
                    pp[c] += hr[c] * g;
                  }
                }
              }
              return partial;
            },
            [](Tensor acc, Tensor partial) {
              acc.AddInPlace(partial);
              return acc;
            });
        for (int64_t k = 0; k < heads; ++k) {
          if (!attn(k)->requires_grad) continue;
          float* pag = attn(k)->EnsureGrad()->data();
          const float* pd = da.data() + k * f;
          for (int64_t c = 0; c < f; ++c) pag[c] += pd[c];
        }
      });
}

Variable GatSegmentAttention(const Variable& h, const Variable& sl,
                             const Variable& sr, std::vector<int64_t> src,
                             std::vector<int64_t> dst, int64_t num_nodes,
                             float negative_slope, float dropout_p,
                             bool training, Rng* rng) {
  return GatSegmentAttention(
      h, sl, sr,
      GroupGatEdges(std::move(src), std::move(dst), h.value().rows(),
                    num_nodes),
      negative_slope, dropout_p, training, rng);
}

Variable GatSegmentAttention(const Variable& h, const Variable& sl,
                             const Variable& sr,
                             std::shared_ptr<const GatEdges> edges,
                             float negative_slope, float dropout_p,
                             bool training, Rng* rng) {
  GR_CHECK(edges != nullptr);
  const Tensor& hv = h.value();
  const int64_t heads = sl.value().cols();
  GR_CHECK_GT(heads, 0);
  GR_CHECK_EQ(hv.rows(), edges->num_src);
  GR_CHECK_EQ(sr.value().cols(), heads);
  GR_CHECK_EQ(sl.value().rows(), hv.rows());
  GR_CHECK_EQ(sr.value().rows(), hv.rows());
  GR_CHECK_EQ(hv.cols() % heads, 0) << "h width must split evenly into heads";
  GR_CHECK(dropout_p >= 0.0f && dropout_p < 1.0f)
      << "dropout p must be in [0,1), got " << dropout_p;
  const int64_t e = static_cast<int64_t>(edges->src.size());
  const int64_t num_nodes = edges->num_dst;
  const int64_t width = hv.cols();
  const int64_t f = width / heads;
  const int64_t* src = edges->src.data();
  const int64_t* dst_off = edges->dst_offsets.data();
  const int64_t* by_dst = edges->by_dst.data();
  const float* psl = sl.value().data();
  const float* psr = sr.value().data();

  // Attention dropout: one Bernoulli per edge and head, head-major — the
  // draws ops::Dropout would make on each head's (e, 1) alpha tensor in
  // head order, so the RNG stream downstream of this op is unchanged by the
  // fusion. The mask has alpha's (H, e) layout. Drawing it before the
  // weights are computed keeps the stream: nothing in between draws.
  const bool use_dropout = training && dropout_p > 0.0f;
  Tensor mask;
  if (use_dropout) {
    mask = Tensor::Uninitialized(heads, e);
    DrawDropoutMask(dropout_p, rng, mask.data(), heads * e);
  }
  const float* pm = use_dropout ? mask.data() : nullptr;

  // One pass per (head, destination node), numerically step-for-step that
  // head's LeakyRelu(sl[src] + sr[dst]) -> SegmentSoftmax -> (Dropout) ->
  // RowScale -> ScatterAddRows chain: the node's edge scores and their
  // float max, float exp(score - max) with a double sum in ascending edge
  // order, float(w / sum) weights — kept in alpha (H, e), row k holding
  // head k's, each edge owned by its destination's task — and then the
  // output row slice [k*f, (k+1)*f), from zero, summing the incoming
  // messages in ascending edge order.
  Tensor alpha = Tensor::Uninitialized(heads, e);
  Tensor out = Tensor::Uninitialized(num_nodes, width);
  float* pa = alpha.data();
  float* po = out.data();
  const float* ph = hv.data();
  ForEachHead(heads, num_nodes, [&](int64_t k, int64_t v0, int64_t v1) {
    float* ak = pa + k * e;
    const float* mk = pm != nullptr ? pm + k * e : nullptr;
    for (int64_t v = v0; v < v1; ++v) {
      const int64_t* first = by_dst + dst_off[v];
      const int64_t* last = by_dst + dst_off[v + 1];
      const float srv = psr[v * heads + k];
      float mx = -std::numeric_limits<float>::infinity();
      for (const int64_t* it = first; it != last; ++it) {
        ak[*it] = LeakyReluSelect(psl[src[*it] * heads + k] + srv,
                                  negative_slope);
        mx = std::max(mx, ak[*it]);
      }
      double sum = 0.0;
      for (const int64_t* it = first; it != last; ++it) {
        ak[*it] = std::exp(ak[*it] - mx);
        sum += ak[*it];
      }
      float* orow = po + v * width + k * f;
      std::fill(orow, orow + f, 0.0f);
      for (const int64_t* it = first; it != last; ++it) {
        ak[*it] = static_cast<float>(ak[*it] / sum);
        const float a = mk != nullptr ? ak[*it] * mk[*it] : ak[*it];
        const float* hr = ph + src[*it] * width + k * f;
        for (int64_t c = 0; c < f; ++c) orow[c] += a * hr[c];
      }
    }
  });

  return MakeOpNode(
      std::move(out), {h, sl, sr},
      [edges = std::move(edges), alpha = std::move(alpha),
       mask = std::move(mask), negative_slope](AutogradNode* n) {
        const int64_t heads = alpha.rows();
        const int64_t e = alpha.cols();
        const int64_t num_nodes = edges->num_dst;
        const int64_t width = n->parents[0]->value.cols();
        const int64_t f = width / heads;
        const int64_t* src = edges->src.data();
        const int64_t* dst = edges->dst.data();
        const int64_t* dst_off = edges->dst_offsets.data();
        const int64_t* by_dst = edges->by_dst.data();
        const int64_t* src_off = edges->src_offsets.data();
        const int64_t* by_src = edges->by_src.data();
        const float* ph = n->parents[0]->value.data();
        const float* psl = n->parents[1]->value.data();
        const float* psr = n->parents[2]->value.data();
        const float* pa = alpha.data();
        const float* pm = mask.numel() > 0 ? mask.data() : nullptr;
        const float* pg = n->grad.data();
        const bool need_sl = n->parents[1]->requires_grad;
        const bool need_sr = n->parents[2]->requires_grad;

        // ScatterAdd + RowScale + Gather backward. h's gradient row slice
        // (u, head k) receives its out-edges' contributions in the
        // ascending edge order the chain's gather-scatter used; slices are
        // independent.
        if (n->parents[0]->requires_grad) {
          float* phg = n->parents[0]->EnsureGrad()->data();
          ForEachHead(heads, edges->num_src,
                      [&](int64_t k, int64_t u0, int64_t u1) {
            const float* ak = pa + k * e;
            const float* mk = pm != nullptr ? pm + k * e : nullptr;
            for (int64_t u = u0; u < u1; ++u) {
              float* hgr = phg + u * width + k * f;
              for (int64_t p = src_off[u]; p < src_off[u + 1]; ++p) {
                const int64_t i = by_src[p];
                const float ad = mk != nullptr ? ak[i] * mk[i] : ak[i];
                const float* g = pg + dst[i] * width + k * f;
                for (int64_t c = 0; c < f; ++c) hgr[c] += g[c] * ad;
              }
            }
          });
        }
        if (!need_sl && !need_sr) return;

        // Per (head, destination node): d_alpha for each incoming edge —
        // the float ascending-c dot the RowScale backward computes, times
        // the mask as dropout's backward does — then the SegmentSoftmax
        // backward's double dot over the edges in ascending order, and each
        // edge's d_e through the leaky-relu slope (overwriting d_alpha with
        // d_pre), added into sr's gradient in ascending edge order. The
        // pre-activation is recomputed from the saved parents (a float add
        // — bit-identical to the forward's), so only alpha and the mask
        // were kept on the tape. The slope is picked by index, not branch,
        // as in LeakyReluSelect.
        Tensor d_pre = Tensor::Uninitialized(heads, e);
        float* pdp = d_pre.data();
        float* srg = need_sr ? n->parents[2]->EnsureGrad()->data() : nullptr;
        const float slopes[2] = {negative_slope, 1.0f};
        ForEachHead(heads, num_nodes, [&](int64_t k, int64_t v0, int64_t v1) {
          const float* ak = pa + k * e;
          const float* mk = pm != nullptr ? pm + k * e : nullptr;
          float* dk = pdp + k * e;
          for (int64_t v = v0; v < v1; ++v) {
            const float* g = pg + v * width + k * f;
            double seg_dot = 0.0;
            for (int64_t p = dst_off[v]; p < dst_off[v + 1]; ++p) {
              const int64_t i = by_dst[p];
              const float* hr = ph + src[i] * width + k * f;
              float dot = 0.0f;
              for (int64_t c = 0; c < f; ++c) dot += g[c] * hr[c];
              dk[i] = mk != nullptr ? dot * mk[i] : dot;
              seg_dot += static_cast<double>(ak[i]) * dk[i];
            }
            for (int64_t p = dst_off[v]; p < dst_off[v + 1]; ++p) {
              const int64_t i = by_dst[p];
              const float de = static_cast<float>(ak[i] * (dk[i] - seg_dot));
              const float pre = psl[src[i] * heads + k] + psr[v * heads + k];
              dk[i] = de * slopes[pre > 0.0f];
              if (srg != nullptr) srg[v * heads + k] += dk[i];
            }
          }
        });

        // Scatter d_pre into sl by source, each gradient entry summing its
        // edges in ascending order. When sl and sr are one node this is the
        // chain's order too: its sr-side GatherRows backward (above) runs
        // before the sl-side one.
        if (need_sl) {
          float* slg = n->parents[1]->EnsureGrad()->data();
          ForEachHead(heads, edges->num_src,
                      [&](int64_t k, int64_t u0, int64_t u1) {
            const float* dk = pdp + k * e;
            for (int64_t u = u0; u < u1; ++u) {
              for (int64_t p = src_off[u]; p < src_off[u + 1]; ++p) {
                slg[u * heads + k] += dk[by_src[p]];
              }
            }
          });
        }
      });
}

Variable Clamp(const Variable& a, float lo, float hi) {
  GR_CHECK_LE(lo, hi);
  return UnaryElementwise(
      a, [lo, hi](float x) { return std::min(std::max(x, lo), hi); },
      [lo, hi](float x, float) {
        return (x >= lo && x <= hi) ? 1.0f : 0.0f;
      });
}

Variable Min(const Variable& a, const Variable& b) {
  GR_CHECK(a.value().SameShape(b.value()));
  const Tensor& av = a.value();
  const Tensor& bv = b.value();
  Tensor out(av.rows(), av.cols());
  Tensor mask(av.rows(), av.cols());  // 1 where a is selected
  for (int64_t i = 0; i < out.numel(); ++i) {
    if (av[i] <= bv[i]) {
      out[i] = av[i];
      mask[i] = 1.0f;
    } else {
      out[i] = bv[i];
      mask[i] = 0.0f;
    }
  }
  return MakeOpNode(std::move(out), {a, b},
                    [mask = std::move(mask)](AutogradNode* n) {
                      if (n->parents[0]->requires_grad) {
                        Tensor d = n->grad;
                        d.MulInPlace(mask);
                        Accumulate(n->parents[0], d);
                      }
                      if (n->parents[1]->requires_grad) {
                        Tensor d = n->grad;
                        float* p = d.data();
                        const float* m = mask.data();
                        for (int64_t i = 0; i < d.numel(); ++i) {
                          p[i] *= (1.0f - m[i]);
                        }
                        Accumulate(n->parents[1], d);
                      }
                    });
}

Variable CrossEntropy(const Variable& logits, const std::vector<int64_t>& index,
                      const std::vector<int64_t>& labels) {
  // Fused kernel: bitwise the LogSoftmaxRows -> GatherRows -> NllLoss chain
  // without materialising the (m, c) log-probability matrix or touching
  // unselected rows in the backward pass.
  return LogSoftmaxNll(logits, index, labels);
}

Variable MseLoss(const Variable& a, const Variable& b) {
  return MeanAll(Square(Sub(a, b)));
}

}  // namespace ops
}  // namespace tensor
}  // namespace graphrare
