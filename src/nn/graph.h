//===- nn/graph.h - Tape-based reverse-mode autograd -----------------------===//
//
// A small define-by-run automatic differentiation engine over 2-D row-major
// float tensors, sufficient for LSTM sequence-to-sequence models with global
// attention: matrix products, elementwise nonlinearities, slicing/concat,
// row-broadcast bias addition, embedding lookup, dropout, softmax and
// cross-entropy. A Graph owns all intermediate values of one forward pass
// and a tape of backward closures; Graph::backward replays the tape in
// reverse. Parameters live outside the graph (nn/layers.h) and accumulate
// gradients across a batch until the optimizer consumes them.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_NN_GRAPH_H
#define SNOWWHITE_NN_GRAPH_H

#include "support/arena.h"
#include "support/rng.h"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace snowwhite {
namespace nn {

namespace kernels {
struct QuantizedMatrix;
} // namespace kernels

/// True when every element of [Data, Data + Size) is finite — no NaN, no
/// infinity. The per-batch numerical-health sentinel: one linear scan, no
/// allocation, safe to run on every batch.
bool allFinite(const float *Data, size_t Size);

/// A persistent, trainable weight matrix with its gradient accumulator.
struct Parameter {
  size_t Rows = 0, Cols = 0;
  std::vector<float> Value;
  std::vector<float> Grad;
  // Adam state (owned here so optimizers stay stateless).
  std::vector<float> AdamM;
  std::vector<float> AdamV;

  Parameter() = default;
  Parameter(size_t Rows, size_t Cols) { resize(Rows, Cols); }

  void resize(size_t NewRows, size_t NewCols) {
    Rows = NewRows;
    Cols = NewCols;
    Value.assign(Rows * Cols, 0.0f);
    Grad.assign(Rows * Cols, 0.0f);
    AdamM.assign(Rows * Cols, 0.0f);
    AdamV.assign(Rows * Cols, 0.0f);
  }

  /// Glorot-uniform initialization.
  void initXavier(Rng &R) {
    float Scale = std::sqrt(6.0f / static_cast<float>(Rows + Cols));
    for (float &W : Value)
      W = R.nextUniformFloat(Scale);
  }

  void zeroGrad() { std::fill(Grad.begin(), Grad.end(), 0.0f); }
  size_t size() const { return Rows * Cols; }
};

/// Private parameter-gradient storage for data-parallel training. A Graph
/// constructed with a sink accumulates parameter gradients into per-sink
/// buffers instead of Parameter::Grad, so several graphs can run backward
/// concurrently over shared parameters without racing. The trainer then
/// calls accumulateInto() for each sink in a fixed shard order, which keeps
/// the floating-point merge identical for any thread count.
class GradientSink {
public:
  /// The buffer accumulating gradients for P (zero-initialized on first
  /// use). Stable for the lifetime of the sink.
  float *bufferFor(Parameter &P) {
    auto [It, Inserted] = Index.try_emplace(&P, Entries.size());
    if (Inserted)
      Entries.emplace_back(&P,
                           std::make_unique<std::vector<float>>(P.size(), 0.0f));
    return Entries[It->second].second->data();
  }

  /// Adds every buffer into its parameter's Grad. Buffers are visited in
  /// first-use order, which is deterministic for a fixed forward pass.
  void accumulateInto() {
    for (auto &[P, Buffer] : Entries)
      for (size_t I = 0; I < Buffer->size(); ++I)
        P->Grad[I] += (*Buffer)[I];
  }

private:
  /// unique_ptr keeps buffer addresses stable across Entries growth; graph
  /// nodes alias them for the duration of the backward pass.
  std::vector<std::pair<Parameter *, std::unique_ptr<std::vector<float>>>>
      Entries;
  std::unordered_map<Parameter *, size_t> Index;
};

/// One node of the computation graph. Trivially destructible on purpose:
/// nodes and their value/grad buffers live in the owning Graph's arena, so
/// building and tearing down a forward pass does no per-node heap traffic.
/// Value points either at arena storage or at external parameter storage;
/// likewise for Grad.
struct VarData {
  size_t Rows = 0, Cols = 0;
  float *Value = nullptr;
  float *Grad = nullptr; ///< nullptr when gradients are not tracked.

  size_t size() const { return Rows * Cols; }
};

/// Lightweight handle to a graph node.
struct Var {
  VarData *Data = nullptr;

  bool valid() const { return Data != nullptr; }
  size_t rows() const { return Data->Rows; }
  size_t cols() const { return Data->Cols; }
  const float *value() const { return Data->Value; }
  float at(size_t Row, size_t Col) const {
    assert(Row < rows() && Col < cols());
    return Data->Value[Row * cols() + Col];
  }
};

/// One forward pass (and its tape). Construct with Training = false for
/// inference: gradients are not allocated and dropout is the identity.
class Graph {
public:
  /// Sink, when given, receives all parameter gradients in place of
  /// Parameter::Grad (data-parallel shards; see GradientSink). It must
  /// outlive the graph.
  explicit Graph(bool Training, GradientSink *Sink = nullptr);
  ~Graph();

  Graph(const Graph &) = delete;
  Graph &operator=(const Graph &) = delete;

  bool isTraining() const { return Training; }

  /// A leaf holding copied input data (no gradient).
  Var input(size_t Rows, size_t Cols, const float *Data);

  /// A leaf of zeros (no gradient); initial LSTM states.
  Var zeros(size_t Rows, size_t Cols);

  /// A leaf aliasing a Parameter's storage; gradients accumulate into
  /// Parameter::Grad.
  Var param(Parameter &P);

  // --- Operations ---------------------------------------------------------
  Var matmul(Var A, Var B);           ///< [m,k] x [k,n] -> [m,n]
  Var matmulTransposeB(Var A, Var B); ///< [m,k] x [n,k]^T -> [m,n]

  /// [m,k] x dequantized(W)[k,n] -> [m,n] against an int8-quantized weight
  /// (kernels::QuantizedMatrix, one scale per W row). Inference-only: there
  /// is no backward rule, so the graph must not be in training mode.
  Var matmulInt8(Var A, const kernels::QuantizedMatrix &W);
  Var add(Var A, Var B);              ///< Same shape.
  Var addRowBroadcast(Var A, Var B);  ///< [m,n] + [1,n].
  Var mul(Var A, Var B);              ///< Elementwise.
  Var scale(Var A, float Factor);
  Var sigmoid(Var A);
  Var tanhOp(Var A);
  Var relu(Var A);

  /// Row-wise layer normalization with learned gain/bias rows [1, n]:
  /// y = (x - mean(x)) / sqrt(var(x) + eps) * Gain + Bias.
  Var layerNorm(Var A, Var Gain, Var Bias);
  Var sliceCols(Var A, size_t Begin, size_t Count);
  Var concatCols(Var A, Var B);
  Var sliceRow(Var A, size_t Row);         ///< [1, n] view-copy of one row.
  Var stackRows(const std::vector<Var> &Rows); ///< k x [1,n] -> [k,n].
  Var dropout(Var A, float Rate, Rng &R);

  /// Rows of E indexed by Ids -> [|Ids|, e]; backward scatters into E.
  Var embedding(Parameter &E, const std::vector<uint32_t> &Ids);

  /// Row-wise softmax. Optional additive mask should be applied (via add)
  /// beforehand.
  Var softmaxRows(Var A);

  /// Mean token-level cross-entropy between Logits [m, v] and Targets [m],
  /// ignoring positions where Targets == IgnoreIndex. Returns a [1,1] loss.
  Var crossEntropy(Var Logits, const std::vector<uint32_t> &Targets,
                   uint32_t IgnoreIndex);

  /// Runs the tape backwards from Loss (seeds dLoss = 1).
  void backward(Var Loss);

  size_t numNodes() const { return NodeCount; }

  /// The arena backing node/value storage (introspection for tests and
  /// telemetry; see support/arena.h for the reuse semantics).
  const Arena &nodeArena() const { return *NodeArena; }

private:
  VarData *newNode(size_t Rows, size_t Cols, bool NeedGrad);

  /// Where gradients for P accumulate: the sink's buffer when one is
  /// installed, Parameter::Grad otherwise.
  float *paramGradTarget(Parameter &P) {
    return Sink ? Sink->bufferFor(P) : P.Grad.data();
  }

  bool Training;
  GradientSink *Sink = nullptr;
  /// Nodes, their value/grad buffers, and per-op backward scratch (softmax
  /// probabilities, layernorm row stats, dropout masks) all bump-allocate
  /// in *NodeArena; everything dies together when the graph does. An
  /// inference graph borrows its thread's shared arena, which is reset
  /// rather than freed, so request after request reuses the same warm
  /// blocks instead of faulting in fresh ones. A training graph, or an
  /// inference graph built while another one holds the thread's arena,
  /// uses OwnArena. Declared before Tape so closures referencing arena
  /// storage are destroyed first.
  Arena OwnArena;
  Arena *NodeArena = &OwnArena;
  /// The borrowed arena's in-use flag; nullptr when NodeArena is OwnArena.
  bool *BorrowedInUse = nullptr;
  size_t NodeCount = 0;
  std::vector<std::function<void()>> Tape;
};

} // namespace nn
} // namespace snowwhite

#endif // SNOWWHITE_NN_GRAPH_H
