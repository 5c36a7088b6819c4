//===- core/IndexMap.h - Composable index mappings ----------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Index maps are how the fusion code generator eliminates data movement
/// (paper §4.4, Figure 5): a Reorganize/Shuffle/Slice/Expand/Gather
/// operator does not copy inside a fused kernel — it becomes a function
/// from consumer indices to producer indices, composed along every DFT
/// edge. Affine maps (offset + per-dimension strides over the consumer's
/// coordinates) cover Transpose/Slice/Expand/broadcast exactly; Gather,
/// Resize, and DepthToSpace use a generic coordinate closure.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_CORE_INDEXMAP_H
#define DNNFUSION_CORE_INDEXMAP_H

#include "graph/Graph.h"
#include "tensor/Shape.h"

#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace dnnfusion {

/// One step mapping flat indices of a Domain shape into flat indices of a
/// producer tensor.
class IndexMap {
public:
  enum class Kind {
    Identity, ///< Flat index is passed through unchanged.
    Affine,   ///< offset + dot(coords(Domain), Strides).
    Generic,  ///< Arbitrary per-coordinate function.
  };

  /// Coordinate closure signature: consumer coordinates -> producer flat.
  using CoordFn = std::function<int64_t(const int64_t *Coords, int Rank)>;

  static IndexMap identity();
  static IndexMap affine(Shape Domain, int64_t Base,
                         std::vector<int64_t> Strides);
  static IndexMap generic(Shape Domain, CoordFn Fn);

  Kind kind() const { return K; }
  bool isIdentity() const { return K == Kind::Identity; }

  /// When the map sends every index to one fixed producer index (an
  /// all-zero-stride affine map — how a broadcast scalar operand reads),
  /// that index; nullopt otherwise.
  std::optional<int64_t> constantIndex() const;

  /// When the map is the right-aligned rank-1 broadcast pattern
  /// "flat -> Base + flat % Period" (zero strides on every outer
  /// dimension, stride one on the innermost — how a GEMM bias reads),
  /// {Base, Period}; nullopt otherwise.
  std::optional<std::pair<int64_t, int64_t>> periodicRow() const;

  /// Maps \p Count flat indices from \p In to \p Out (may alias).
  void mapIndices(const int64_t *In, int64_t *Out, int64_t Count) const;

  /// Maps the contiguous range [Base, Base + Count) into \p Out using an
  /// incremental coordinate walk — no per-element division. This is the
  /// hot path of fused-kernel evaluation.
  void mapContiguous(int64_t Base, int64_t *Out, int64_t Count) const;

  /// Single-index version.
  int64_t map(int64_t Flat) const;

  /// Compact description used by the C++ source emitter.
  std::string describe() const;

private:
  Kind K = Kind::Identity;
  Shape Domain;
  int64_t Base = 0;
  std::vector<int64_t> Strides;
  CoordFn Fn;
};

/// A chain of maps applied in order (consumer side first).
using IndexChain = std::vector<IndexMap>;

/// True when the whole chain is a no-op.
bool chainIsIdentity(const IndexChain &Chain);

/// When the composed chain maps every index to one fixed producer index
/// (some map along it is constant, making everything downstream of that
/// map independent of the consumer index), the final index; nullopt
/// otherwise. This is how a broadcast scalar reaches a fused kernel.
std::optional<int64_t> chainConstantIndex(const IndexChain &Chain);

/// When the composed chain is exactly one periodic-row map (identity maps
/// aside), its {Base, Period}; nullopt otherwise. This is how a GEMM bias
/// or per-row parameter reaches a fused kernel.
std::optional<std::pair<int64_t, int64_t>> chainPeriodicRow(
    const IndexChain &Chain);

/// The access map of a data-movement operator \p N: flat indices of N's
/// output -> flat indices of N's single data input. Supported kinds:
/// Reshape/Flatten/Squeeze/Unsqueeze/Identity (identity map), Transpose,
/// Slice, Expand (affine), Gather, Resize, Upsample, DepthToSpace,
/// SpaceToDepth (generic). Aborts on other kinds.
IndexMap movementOpMap(const Graph &G, const Node &N);

/// True when movementOpMap supports \p Kind.
bool isFoldableMovementOp(OpKind Kind);

/// Broadcast access map for an elementwise operand: flat indices of
/// \p OutShape -> flat indices of an operand shaped \p InShape (numpy
/// right-aligned rules; rank-1 channel parameters of \p ChannelParamsOp
/// operators align on dimension 1 as ONNX specifies). Identity when the
/// shapes already match.
IndexMap operandBroadcastMap(const Shape &InShape, const Shape &OutShape,
                             bool ChannelParam);

} // namespace dnnfusion

#endif // DNNFUSION_CORE_INDEXMAP_H
